#!/bin/sh
# Every lib/ module must be named by code outside test/: by lib/, bin/,
# bench/, benchmark/ or examples/, other than by its own .ml/.mli.  A
# module only tests call belongs in test/oracle, not in lib/.
#
# Usage: sh lib_callers.sh ROOT   (ROOT holds lib/ bin/ bench/ ...)
#
# A module is named when code outside its own files, comments stripped,
# mentions [Name.x], or opens, includes or aliases [Name].

root=${1:-.}

# Catalogue is the only producer of the Catalogue_growth checkpoint,
# which every spent record reports; its own callers are tests today.
allow="Catalogue"

code=$(mktemp)
trap 'rm -f "$code"' EXIT

# One line per source line, "FILE<TAB>code": nested comments and the
# contents of string literals removed (a "(*" inside a string opens no
# comment).
for d in lib bin bench benchmark examples; do
  [ -d "$root/$d" ] && find "$root/$d" -name '*.ml' -o -name '*.mli'
done | xargs awk '
  FNR == 1 { depth = 0; instr = 0 }
  {
    out = ""; n = length($0)
    for (i = 1; i <= n; i++) {
      c = substr($0, i, 1); two = substr($0, i, 2)
      if (instr) {
        if (c == "\\") i++
        else if (c == "\"") { instr = 0; if (depth == 0) out = out c }
      } else if (two == "(*") { depth++; i++ }
      else if (depth > 0 && two == "*)") { depth--; i++ }
      else if (c == "\"") { instr = 1; if (depth == 0) out = out c }
      else if (substr($0, i, 3) == "'\''\"'\''") { if (depth == 0) out = out "x"; i += 2 }
      else if (depth == 0) out = out c
    }
    print FILENAME "\t" out
  }' > "$code"

status=0
for f in "$root"/lib/*/*.ml; do
  dir=$(dirname "$f")
  base=$(basename "$f" .ml)
  mod=$(printf '%s\n' "$base" |
    awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  case " $allow " in *" $mod "*) continue ;; esac
  pattern="(^|[^A-Za-z0-9_'])$mod\\.[A-Za-z_(]|(open|include|=) +([A-Z][A-Za-z0-9_]*\\.)*$mod([^A-Za-z0-9_'.]|\$)"
  if ! awk -F'\t' -v a="$dir/$base.ml" -v b="$dir/$base.mli" \
      '$1 != a && $1 != b { print $2 }' "$code" | grep -qE "$pattern"; then
    echo "lib_callers: ${f#"$root"/} ($mod) has no caller outside test/" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "lib_callers: every lib/ module has a caller outside test/"
exit "$status"
