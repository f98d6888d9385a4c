package doccheck

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestREADMEPackageMap holds README's Architecture block to the tree: the
// names in its first column (a row may name several packages, "scsi,
// iscsi") must be exactly the directories under internal/ that hold a
// non-test .go file. A package added or deleted without its row fails here.
func TestREADMEPackageMap(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	listed, err := packageMap(string(readme))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("..", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	tree := map[string]bool{}
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			tree[filepath.Base(filepath.Dir(f))] = true
		}
	}
	for _, name := range sortedKeys(tree) {
		if !listed[name] {
			t.Errorf("internal/%s has no row in README's Architecture block", name)
		}
	}
	for _, name := range sortedKeys(listed) {
		if !tree[name] {
			t.Errorf("README's Architecture block lists %s, which is not a package under internal/", name)
		}
	}
}

// packageMap returns the first-column names of the code block that follows
// README's "## Architecture" heading. A row starts in column one; its
// continuation lines are indented.
func packageMap(readme string) (map[string]bool, error) {
	_, section, ok := strings.Cut(readme, "\n## Architecture\n")
	if !ok {
		return nil, errors.New("README has no Architecture section")
	}
	_, block, ok := strings.Cut(section, "\n```\n")
	if !ok {
		return nil, errors.New("README's Architecture section has no code block")
	}
	block, _, _ = strings.Cut(block, "\n```")
	names := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		if line == "" || line[0] == ' ' {
			continue
		}
		column, _, _ := strings.Cut(line, "  ")
		for _, name := range strings.Split(column, ",") {
			names[strings.TrimSpace(name)] = true
		}
	}
	return names, nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
