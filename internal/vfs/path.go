package vfs

import "strings"

// MaxNameLen is the longest path component a FileSystem accepts.
const MaxNameLen = 255

// RelPath validates an absolute cleaned path and returns it without its
// leading slash: components joined by single slashes, "" for the root.
// Resolvers step through the result in place (strings.Cut on "/") instead
// of splitting it into a slice, so a path walk allocates nothing.
func RelPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", ErrInvalid
	}
	if p == "/" {
		return "", nil
	}
	if err := CheckRel(p[1:]); err != nil {
		return "", err
	}
	return p[1:], nil
}

// CheckRel validates a non-empty relative path (a symlink target, or an
// absolute path past its slash): no component is empty or over-long.
func CheckRel(rel string) error {
	for more := true; more; {
		var c string
		c, rel, more = strings.Cut(rel, "/")
		if c == "" {
			return ErrInvalid
		}
		if len(c) > MaxNameLen {
			return ErrNameTooLong
		}
	}
	return nil
}

// ParentRel validates absolute path p and splits it into the relative path
// of its parent directory and its final component, which must name an
// entry: not the root, "." or "..".
func ParentRel(p string) (dir, name string, err error) {
	rel, err := RelPath(p)
	if err != nil {
		return "", "", err
	}
	name = rel
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		dir, name = rel[:i], rel[i+1:]
	}
	if name == "" || name == "." || name == ".." {
		return "", "", ErrInvalid
	}
	return dir, name, nil
}
