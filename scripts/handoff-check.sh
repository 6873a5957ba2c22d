#!/usr/bin/env bash
# The ROADMAP's hand-off rule as a command: exit 1, listing the offenders,
# while any Go build, test, benchmark or svbench process is still running.
# Run it last, after stopping everything the session started.
left="$(ps -eo pid,args | grep -E '[g]o (test|run|build)|[s]vbench|bench_build/[b]enchmark|[.]test( |$)')"
if [ -n "$left" ]; then
	echo "handoff-check: still running:" >&2
	echo "$left" >&2
	exit 1
fi
