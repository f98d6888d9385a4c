#!/usr/bin/env bash
# Coverage ratchet: the number of statements no test runs, per package.
#
# Reads a profile written by
#
#   go test -coverpkg=./... -coverprofile=cover.out ./...
#
# in which every test binary reports every block of the module. A block
# counts as covered if any binary ran it. The uncovered statements are
# summed per package (hostbench/ left out) and compared with the committed
# counts in uncovered.txt beside this script. Any difference fails: a count
# that rose needs a test or a deletion, a count that fell needs the file
# rewritten, so the counts only go down.
#
#   bash .github/uncovered.sh cover.out           # compare
#   bash .github/uncovered.sh cover.out -update   # rewrite uncovered.txt
set -euo pipefail

profile=${1:?usage: uncovered.sh PROFILE [-update]}
counts=$(dirname "$0")/uncovered.txt
module=$(go list -m)

got=$(awk -v mod="$module/" '
	/^mode:/ { next }
	{
		# file:start.col,end.col statements count
		stmts[$1] = $2
		if ($3 > 0) hit[$1] = 1
	}
	END {
		for (b in stmts) {
			pkg = substr(b, 1, index(b, ":") - 1)
			sub(/\/[^\/]*$/, "", pkg)
			if (index(pkg, mod) == 1) pkg = substr(pkg, length(mod) + 1)
			if (pkg ~ /^hostbench(\/|$)/) continue
			total += stmts[b]
			if (!(pkg in miss)) miss[pkg] = 0
			if (!(b in hit)) { miss[pkg] += stmts[b]; missed += stmts[b] }
		}
		for (p in miss) printf "%s %d\n", p, miss[p]
		printf "%d of %d statements uncovered\n", missed, total > "/dev/stderr"
	}' "$profile" | LC_ALL=C sort)

if [ "${2:-}" = "-update" ]; then
	printf '%s\n' "$got" >"$counts"
	exit 0
fi
if ! diff -u "$counts" <(printf '%s\n' "$got"); then
	echo "uncovered statements per package differ from $counts (- committed, + measured)." >&2
	echo "A rise needs a test or a deletion; a fall needs: bash .github/uncovered.sh $profile -update" >&2
	exit 1
fi
