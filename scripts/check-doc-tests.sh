#!/bin/sh
# Fails when README.md, EXPERIMENTS.md or DESIGN.md cites a Test..., Fuzz...
# or Benchmark... function that no _test.go file in the repository
# defines. A cited name followed by `*` (for example `BenchmarkFig6a_*`)
# is a prefix and must match at least one defined function. Run it from
# anywhere in the repository; check.sh runs it.
set -eu

cd "$(dirname "$0")/.."

defined=$(find . -path './.*' -prune -o -name '*_test.go' -print |
	xargs grep -ohE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' |
	sed 's/^func //' | sort -u)

cited=$(grep -ohE '(^|[^A-Za-z0-9_])(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?' \
	README.md EXPERIMENTS.md DESIGN.md | sed 's/^[^A-Za-z0-9_]//' | sort -u)

missing=""
for name in $cited; do
	case "$name" in
	*\*)
		prefix=${name%\*}
		if ! printf '%s\n' "$defined" | grep -q "^$prefix"; then
			missing="$missing $name"
		fi
		;;
	*)
		if ! printf '%s\n' "$defined" | grep -qx "$name"; then
			missing="$missing $name"
		fi
		;;
	esac
done

if [ -n "$missing" ]; then
	echo "docs cite test functions that no _test.go defines:" >&2
	for name in $missing; do
		echo "  $name" >&2
	done
	exit 1
fi
