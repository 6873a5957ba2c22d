#!/usr/bin/env bash
# The ROADMAP's hand-off rule as a command: exit 1, listing the offenders,
# while any Go build, test, benchmark or svbench process is still running.
# Run it last, after stopping everything the session started.

# The match is on full argv, so a shell whose command text merely mentions
# `go test` would match too. Such a shell can only be this script's own
# ancestor (it is waiting for us), so the ancestor chain is not a leftover.
self=" "
pid=$$
while [ "${pid:-0}" -gt 1 ]; do
	self="$self$pid "
	pid="$(ps -o ppid= -p "$pid" | tr -d ' ')"
done
left="$(ps -eo pid,args | awk -v self="$self" 'index(self, " " $1 " ") == 0' |
	grep -E '[g]o (test|run|build)|[s]vbench|bench_build/[b]enchmark|[.]test( |$)')"
if [ -n "$left" ]; then
	echo "handoff-check: still running:" >&2
	echo "$left" >&2
	exit 1
fi
