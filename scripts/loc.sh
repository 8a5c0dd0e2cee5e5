#!/bin/sh
# Print the number of non-test Go lines outside perfbench/: the
# "production lines" figure ROADMAP.md and CHANGES.md quote when a change
# claims less code. Counts tracked files only, so run it after `git add`
# when files were added or deleted. Informational: it never fails a build.
# Run locally via `make loc`; CI prints it in the build job.
set -eu

cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^perfbench/' | xargs cat | wc -l
