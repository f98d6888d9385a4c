package workload

import "repro/internal/vfs"

// Ops is the clock-advancing syscall surface a step driver needs. Both
// *testbed.Testbed and the per-client *testbed.Client of a cluster satisfy
// it, so every driver in this package runs unchanged on one machine or
// interleaved across N.
type Ops interface {
	Mkdir(path string) error
	Create(path string) (vfs.File, error)
	Open(path string) (vfs.File, error)
	Close(f vfs.File) error
	ReadFileAt(f vfs.File, off int64, buf []byte) (int, error)
	WriteFileAt(f vfs.File, off int64, data []byte) (int, error)
	Unlink(path string) error
	WriteFile(path string, data []byte) error
}

// Steps is a resumable workload driver: each call issues the next
// operation at the client's current virtual time and reports whether more
// work remains. A scheduler interleaves Steps from concurrent clients in
// virtual-time order; a single-client run just drives one to completion.
type Steps func() (more bool, err error)

// RunSteps drives a step machine to completion (the single-client path).
func RunSteps(s Steps) error {
	for {
		more, err := s()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// runSteps adapts RunSteps to the measure() closure signature.
func runSteps(s Steps) func() error {
	return func() error { return RunSteps(s) }
}

// Drivers adapts a per-client Steps slice to the raw step-function slice
// testbed.Cluster.Run consumes (index-aligned with the cluster's clients).
func Drivers(steps []Steps) []func() (more bool, err error) {
	ds := make([]func() (more bool, err error), len(steps))
	for i, s := range steps {
		ds[i] = s
	}
	return ds
}
