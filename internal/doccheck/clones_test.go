package doccheck

import (
	"fmt"
	"go/scanner"
	"go/token"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// The clone scan: which stretches of the tree say the same thing twice.
// Every non-test .go file outside hostbench/ is reduced to its code lines
// (comments, blank lines and import declarations dropped, identifiers that
// start in lower case folded to one token, so renamed locals still match);
// a window is eight consecutive code lines holding at least twelve
// identifiers, which keeps runs of braces and one-word lines out. Two places
// share a window when the folded text is equal. The scan ranks files by the
// windows they repeat inside themselves and pairs of files by the windows
// they share, and holds every file to one ceiling on both counts.
const (
	cloneWindow   = 8
	cloneMinIdent = 12
	// cloneCeiling is the most windows a file may repeat within itself or
	// share with any other file. One pair sits at it, ext3/inodeops.go
	// with ext3/ops.go: two error-checked calls in a row, a coincidence of
	// tokens rather than a decision made twice.
	cloneCeiling = 2
)

// codeLine is one source line of a file after folding.
type codeLine struct {
	text   string
	idents int
	line   int
}

// foldFile tokenizes a Go source file into folded code lines.
func foldFile(src []byte) []codeLine {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	var lines []codeLine
	inImport, depth := false, 0
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return lines
		}
		if tok == token.SEMICOLON && lit == "\n" {
			if depth == 0 {
				inImport = false
			}
			continue
		}
		if tok == token.IMPORT {
			inImport = true
		}
		if inImport {
			switch tok {
			case token.LPAREN:
				depth++
			case token.RPAREN:
				depth--
			}
			continue
		}
		text, ident := tok.String(), 0
		switch {
		case tok == token.IDENT && unicode.IsLower(rune(lit[0])):
			text, ident = "_", 1
		case tok == token.IDENT:
			text, ident = lit, 1
		case tok.IsLiteral():
			text = lit
		}
		if n := file.Line(pos); len(lines) == 0 || lines[len(lines)-1].line != n {
			lines = append(lines, codeLine{line: n})
		}
		last := &lines[len(lines)-1]
		last.text += text + " "
		last.idents += ident
	}
}

// windows returns the hash of every window of a file and the index of its
// first code line.
func windows(lines []codeLine) (hashes []uint64, at []int) {
	for i := 0; i+cloneWindow <= len(lines); i++ {
		h, idents := fnv.New64a(), 0
		for _, l := range lines[i : i+cloneWindow] {
			h.Write([]byte(l.text))
			h.Write([]byte{'\n'})
			idents += l.idents
		}
		if idents >= cloneMinIdent {
			hashes, at = append(hashes, h.Sum64()), append(at, i)
		}
	}
	return hashes, at
}

// TestCloneScan logs the ten files that repeat themselves most and the ten
// pairs of files that share most, and fails when any file passes
// cloneCeiling on either count.
func TestCloneScan(t *testing.T) {
	root := filepath.Join("..", "..")
	type occurrence struct {
		file string
		at   int // index of the window's first code line
	}
	seen := map[uint64][]occurrence{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "hostbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		hashes, at := windows(foldFile(src))
		for i, h := range hashes {
			seen[h] = append(seen[h], occurrence{filepath.ToSlash(rel), at[i]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A file's own count is the windows that repeat an earlier,
	// non-overlapping one; a pair's count is the distinct windows both hold.
	counts := map[[2]string]int{}
	for _, occs := range seen {
		files := map[string]int{} // file -> start of its first occurrence
		for _, o := range occs {
			first, ok := files[o.file]
			if !ok {
				files[o.file] = o.at
			} else if o.at >= first+cloneWindow {
				counts[[2]string{o.file, o.file}]++
			}
		}
		for a := range files {
			for b := range files {
				if a < b {
					counts[[2]string{a, b}]++
				}
			}
		}
	}
	pairs := make([][2]string, 0, len(counts))
	for p := range counts {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if ci, cj := counts[pairs[i]], counts[pairs[j]]; ci != cj {
			return ci > cj
		}
		return fmt.Sprint(pairs[i]) < fmt.Sprint(pairs[j])
	})

	for _, same := range []bool{true, false} {
		logged := 0
		for _, p := range pairs {
			if (p[0] == p[1]) != same {
				continue
			}
			name := p[0]
			if !same {
				name += " <-> " + p[1]
			}
			if logged++; logged <= 10 {
				t.Logf("%4d windows  %s", counts[p], name)
			}
			if counts[p] > cloneCeiling {
				t.Errorf("%s: %d cloned windows of %d lines, ceiling %d: say it once",
					name, counts[p], cloneWindow, cloneCeiling)
			}
		}
	}
}
