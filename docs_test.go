package skipvector

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles are the documents that describe the tree as it is. CHANGES.md,
// ROADMAP.md and EXPERIMENTS.md are history and may name what is gone.
var docFiles = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var inlineCode = regexp.MustCompile("`([^`]+)`")

// missingDocPaths returns the file references in text that resolve to
// nothing. A reference is the first word of an inline backticked token that
// either starts with one of topDirs or ends in a source/config extension. It
// resolves if it is a path from the root, or the tail of one: the docs also
// write bare names (`gate.go`) and package-relative paths
// (`vectormap/search.go`). tree holds every path under the root.
func missingDocPaths(text string, topDirs map[string]bool, tree []string) []string {
	var missing []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
			words := strings.Fields(m[1])
			if len(words) == 0 {
				continue
			}
			ref := strings.TrimSuffix(strings.TrimPrefix(words[0], "./"), "/")
			top, _, _ := strings.Cut(ref, "/")
			switch path.Ext(ref) {
			case ".go", ".sh", ".json", ".yml":
			default:
				if !topDirs[top] {
					continue
				}
			}
			if !slices.ContainsFunc(tree, func(p string) bool {
				return p == ref || strings.HasSuffix(p, "/"+ref)
			}) {
				missing = append(missing, ref)
			}
		}
	}
	return missing
}

// TestDocsNameOnlyExistingFiles keeps README, DESIGN and the verify skill
// from naming a file or directory the tree no longer has.
func TestDocsNameOnlyExistingFiles(t *testing.T) {
	topDirs := map[string]bool{}
	var tree []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() && (p == ".git" || p == ".bench_build" || p == ".bench_out") {
			return filepath.SkipDir
		}
		if d.IsDir() && !strings.Contains(p, "/") {
			topDirs[p] = true
		}
		tree = append(tree, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range missingDocPaths(string(text), topDirs, tree) {
			t.Errorf("%s names `%s`, which does not exist", doc, ref)
		}
	}

	// The check itself: a planted stale path is caught, live ones are not.
	planted := "see `internal/retired/retired.go`, `internal/core/snapshot.go -x` and `gate.go`\n" +
		"```\n`internal/gone/fenced.go`\n```\n"
	got := missingDocPaths(planted, topDirs, tree)
	if len(got) != 1 || got[0] != "internal/retired/retired.go" {
		t.Errorf("planted stale path: got %v, want [internal/retired/retired.go]", got)
	}
}
