#!/usr/bin/env bash
# Counts non-test source lines and public items per workspace crate.
#
# For every `src/**/*.rs` file of a crate, only the lines before the file's
# first `#[cfg(test)]` count (the whole file when it has none). In that
# region the script also counts `pub fn|struct|enum|trait|mod|use|const|
# static|type` items. `pub(crate)` and other restricted items are not public
# API and are not counted.
#
# Usage:
#   scripts/loc.sh                 # one line per crate
#   scripts/loc.sh --files         # plus one line per source file
#   scripts/loc.sh --files DIR     # measure another checkout at DIR
set -euo pipefail

files=0
if [[ "${1:-}" == "--files" ]]; then
  files=1
  shift
fi
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Prints "<lines> <pub items>" for the non-test region of one file.
measure() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    { lines++ }
    /^[[:space:]]*pub[[:space:]]+(fn|struct|enum|trait|mod|use|const|static|type)[[:space:]]/ { items++ }
    END { printf "%d %d\n", lines, items }
  ' "$1"
}

printf '%-16s %7s %9s\n' crate lines pub_items
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir="$(dirname "$manifest")"
  [[ -d "$dir/src" ]] || continue
  name="$(awk -F'"' '/^name[[:space:]]*=/ { print $2; exit }' "$manifest")"
  total_lines=0
  total_items=0
  while IFS= read -r file; do
    read -r lines items < <(measure "$file")
    total_lines=$((total_lines + lines))
    total_items=$((total_items + items))
    if ((files)); then
      printf '  %-40s %7d %9d\n' "$file" "$lines" "$items"
    fi
  done < <(find "$dir/src" -name '*.rs' | sort)
  printf '%-16s %7d %9d\n' "$name" "$total_lines" "$total_items"
done
