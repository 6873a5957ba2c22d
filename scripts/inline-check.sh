#!/usr/bin/env bash
# The chunk kernels (find, top, bounds and shift in
# internal/vectormap/search.go) are written once, generic over the key-cell
# type, and stenciled once per width. Each instantiation must inline the
# small helpers it calls, or every probe and lane pays a call. This builds
# the package with -gcflags=-m and fails unless every call of load, store,
# pivot, probe, lanesAt, tail and lane, and of the block methods cellOf and
# keyOf, which carry the window arithmetic (block.go), inside a kernel is
# reported inlined once per width, that is once per type of the cell
# constraint.
set -euo pipefail
cd "$(dirname "$0")/.."
src=internal/vectormap/search.go
helpers="load store pivot probe lanesAt tail lane (*block).cellOf (*block).keyOf"

widths="$(grep -m1 -A1 '^type cell interface' "$src" | tail -n 1 | tr '|' '\n' | grep -c 'uint')"
# The kernels' line ranges: from each generic func line to its closing brace.
ranges="$(awk '/^func [a-z]+\[T cell\]/ { start = NR } start && /^}/ { print start, NR; start = 0 }' "$src")"
if [ "$widths" -lt 2 ] || [ -z "$ranges" ]; then
	echo "inline-check: found $widths cell types and no kernels in $src" >&2
	exit 1
fi
diag="$(go build -gcflags=-m ./internal/vectormap/ 2>&1)"

fail=0
for h in $helpers; do
	if grep -qF "cannot inline $h:" <<<"$diag"; then
		echo "inline-check: $h cannot be inlined" >&2
		fail=1
	fi
	# Each kernel call site of h with the number of times it was inlined.
	re="$(sed 's/[][()*.^$]/\\&/g' <<<"$h")"
	sites="$( (grep -E "^$src:[0-9]+:[0-9]+: inlining call to $re\$" <<<"$diag" || true) |
		cut -d: -f2,3 | sort | uniq -c |
		awk -v ranges="$ranges" '{
			split($2, at, ":"); n = split(ranges, r, /[ \n]/)
			for (i = 1; i < n; i += 2) if (at[1] >= r[i] && at[1] <= r[i + 1]) { print $1, $2; break }
		}')"
	if [ -z "$sites" ]; then
		echo "inline-check: no kernel call of $h is reported inlined" >&2
		fail=1
		continue
	fi
	while read -r count at; do
		if [ "$count" -ne "$widths" ]; then
			echo "inline-check: $h at $src:$at inlined in $count of $widths width instantiations" >&2
			fail=1
		fi
	done <<<"$sites"
	echo "inline-check: $h inlined at $(wc -l <<<"$sites") kernel call sites in each of $widths widths"
done
exit "$fail"
