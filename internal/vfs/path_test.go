package vfs

import (
	"strings"
	"testing"
)

func TestRelPathAndParentRel(t *testing.T) {
	long := strings.Repeat("n", MaxNameLen+1)
	cases := []struct {
		path      string
		rel       string
		err       error
		dir, name string
		parentErr error
	}{
		{"", "", ErrInvalid, "", "", ErrInvalid},
		{"a/b", "", ErrInvalid, "", "", ErrInvalid},
		{"/", "", nil, "", "", ErrInvalid},
		{"/a", "a", nil, "", "a", nil},
		{"/a/b/c", "a/b/c", nil, "a/b", "c", nil},
		{"//a", "", ErrInvalid, "", "", ErrInvalid},
		{"/a//b", "", ErrInvalid, "", "", ErrInvalid},
		{"/a/", "", ErrInvalid, "", "", ErrInvalid},
		{"/a/.", "a/.", nil, "", "", ErrInvalid},
		{"/a/..", "a/..", nil, "", "", ErrInvalid},
		{"/" + long[1:], long[1:], nil, "", long[1:], nil},
		{"/a/" + long, "", ErrNameTooLong, "", "", ErrNameTooLong},
		{"/a//" + long, "", ErrInvalid, "", "", ErrInvalid},
	}
	for _, tc := range cases {
		rel, err := RelPath(tc.path)
		if err != tc.err || rel != tc.rel {
			t.Errorf("RelPath(%.20q) = %.20q, %v; want %.20q, %v", tc.path, rel, err, tc.rel, tc.err)
		}
		dir, name, err := ParentRel(tc.path)
		if err != tc.parentErr || dir != tc.dir || name != tc.name {
			t.Errorf("ParentRel(%.20q) = %.20q, %.20q, %v; want %.20q, %.20q, %v",
				tc.path, dir, name, err, tc.dir, tc.name, tc.parentErr)
		}
	}
	if err := CheckRel("../x/y"); err != nil {
		t.Errorf("CheckRel of a relative symlink target: %v", err)
	}
	if err := CheckRel("x//y"); err != ErrInvalid {
		t.Errorf("CheckRel with an empty component: %v", err)
	}
}

// TestPathHelpersAllocateNothing: a walk steps through the string RelPath
// returns, so validating and splitting a path creates no garbage.
func TestPathHelpersAllocateNothing(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		if _, err := RelPath("/pm/s3/f123"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParentRel("/pm/s3/f123"); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("%v allocs/op, want 0", n)
	}
}
