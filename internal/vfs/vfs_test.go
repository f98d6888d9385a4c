package vfs

import (
	"testing"
	"time"
)

func TestModeClassification(t *testing.T) {
	if !(ModeDir | 0o755).IsDir() || (ModeDir | 0o755).IsRegular() {
		t.Fatal("dir mode misclassified")
	}
	if !(ModeRegular | 0o644).IsRegular() {
		t.Fatal("regular mode misclassified")
	}
	if !(ModeSymlink | 0o777).IsSymlink() {
		t.Fatal("symlink mode misclassified")
	}
	if (ModeRegular | 0o644).Perm() != 0o644 {
		t.Fatal("perm extraction")
	}
}

// fakeFS implements just enough FileSystem for Env tests.
type fakeFS struct {
	FileSystem
	dirs map[string]bool
}

func (f *fakeFS) Stat(at time.Duration, path string) (Stat, time.Duration, error) {
	if f.dirs[path] {
		return Stat{Mode: ModeDir | 0o755}, at, nil
	}
	if path == "/file" {
		return Stat{Mode: ModeRegular | 0o644}, at, nil
	}
	return Stat{}, at, ErrNotExist
}

func TestEnvChdirAndAbs(t *testing.T) {
	fs := &fakeFS{dirs: map[string]bool{"/": true, "/a": true, "/a/b": true}}
	env := NewEnv(fs)
	if env.cwd != "/" {
		t.Fatalf("initial cwd %q", env.cwd)
	}
	if _, err := env.Chdir(0, "/a"); err != nil {
		t.Fatal(err)
	}
	if got := env.Abs("b"); got != "/a/b" {
		t.Fatalf("relative resolution: %q", got)
	}
	if _, err := env.Chdir(0, "b"); err != nil {
		t.Fatal(err)
	}
	if env.cwd != "/a/b" {
		t.Fatalf("cwd %q", env.cwd)
	}
	if got := env.Abs(".."); got != "/a" {
		t.Fatalf("dotdot: %q", got)
	}
	if got := env.Abs("/x/../y"); got != "/y" {
		t.Fatalf("clean: %q", got)
	}
	if _, err := env.Chdir(0, "/file"); err != ErrNotDir {
		t.Fatalf("chdir to file: %v", err)
	}
	if _, err := env.Chdir(0, "/missing"); err != ErrNotExist {
		t.Fatalf("chdir to missing: %v", err)
	}
}
