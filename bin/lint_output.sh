# Drive `dbre analyze --lint --flow` over two generated fixtures and
# print each run's exit code, stdout and stderr. Usage:
#   sh lint_output.sh DBRE_CLI_EXE LINT_PROGRAM
# The first fixture gains LINT_PROGRAM, whose dead host-variable write
# draws a workload diagnostic; the second has an ill-typed cell, so its
# strict load fails and no lint is printed.
set -u
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
prog=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
"$bin" generate --out lint --rows 20 --entities 2 > /dev/null || exit 1
cp "$prog" lint/programs/
"$bin" generate --out badload --rows 20 --entities 2 > /dev/null || exit 1
echo 'oops,x,1' >> badload/data/E0.csv
for fixture in lint badload; do
  "$bin" analyze --ddl $fixture/schema.sql --data $fixture/data \
    --programs $fixture/programs --lint --flow > out 2> err
  echo "== $fixture: exit $?"
  echo "-- stdout"
  cat out
  echo "-- stderr"
  cat err
done
