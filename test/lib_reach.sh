# Print every lib/*/*.ml whose module no other file under lib/, bin/
# or bench/e2e/ names, as `M.`, `(M)`, `= M` or `include M` (M possibly
# qualified, as in `= Workload.M`): the library modules that no run
# reaches. Usage:
#   sh lib_reach.sh PROJECT_ROOT
set -u
cd "$1" || exit 1
for f in lib/*/*.ml; do
  m=$(basename "$f" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  grep -rlE --include='*.ml' --include='*.mli' \
    "\\b$m\\.|\\($m\\)|(=|include) *([A-Z][A-Za-z0-9_]*\\.)*$m\\b" \
    lib bin bench/e2e | grep -vx -e "$f" -e "${f}i" | grep -q . || echo "$f"
done
