package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the -cpuprofile/-memprofile state for a sweep cmd. The
// zero value (no flags set) is inert, so cmds can call Start/Stop
// unconditionally.
type Profile struct {
	cpu string
	mem string
	f   *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on fs and returns
// the Profile that drives them. Call Start after fs.Parse and Stop
// (usually deferred) before exit.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file at exit")
	return p
}

// Start begins CPU profiling if -cpuprofile was given.
func (p *Profile) Start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	p.f = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile if -memprofile was
// given. Safe to call when Start did nothing.
func (p *Profile) Stop() error {
	if p.f != nil {
		pprof.StopCPUProfile()
		err := p.f.Close()
		p.f = nil
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	return f.Close()
}
