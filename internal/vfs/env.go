package vfs

import (
	"path"
	"time"
)

// Env wraps a FileSystem with a current working directory, providing the
// chdir(2) analogue the micro-benchmarks exercise and relative-path
// resolution for workloads that navigate a tree (ls -lR, kernel compile).
type Env struct {
	FS  FileSystem
	cwd string
}

// NewEnv returns an environment rooted at "/".
func NewEnv(fs FileSystem) *Env { return &Env{FS: fs, cwd: "/"} }

// Abs resolves p against the cwd and cleans it.
func (e *Env) Abs(p string) string {
	if p == "" {
		return e.cwd
	}
	if !path.IsAbs(p) {
		p = path.Join(e.cwd, p)
	}
	return path.Clean(p)
}

// Chdir validates that p names a directory (triggering the same lookups a
// real chdir performs) and changes the cwd.
func (e *Env) Chdir(at time.Duration, p string) (time.Duration, error) {
	abs := e.Abs(p)
	st, done, err := e.FS.Stat(at, abs)
	if err != nil {
		return done, err
	}
	if !st.Mode.IsDir() {
		return done, ErrNotDir
	}
	e.cwd = abs
	return done, nil
}
