package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/testbed"
)

// rangeValue is a numeric flag that refuses values outside its range as
// it is set, so a hostile value never reaches the simulator. The flag is
// given in units (KB, MB) of the quantity the program keeps.
type rangeValue[T int | int64 | float64] struct {
	p     *T
	unit  T
	parse func(string) (T, error)
}

func (r rangeValue[T]) String() string {
	if r.p == nil { // the zero value flag.PrintDefaults compares defaults with
		return "0"
	}
	return fmt.Sprint(*r.p / r.unit)
}

func (r rangeValue[T]) Set(s string) error {
	v, err := r.parse(s)
	if err == nil {
		*r.p = v * r.unit
	}
	return err
}

// RangeVar registers a numeric flag on fs whose value must lie in
// [min, max]; parsing fails with `bad -<name> value …` otherwise.
func RangeVar[T int | int64 | float64](fs *flag.FlagSet, p *T, name string, def, min, max T, usage string) {
	ScaledVar(fs, p, name, 1, def, min, max, usage)
}

// ScaledVar is RangeVar for a flag given in units of the stored quantity:
// def, min and max are in flag units (-window 64 KB), *p receives
// unit times the value (65536 bytes).
func ScaledVar[T int | int64 | float64](fs *flag.FlagSet, p *T, name string, unit, def, min, max T, usage string) {
	*p = def * unit
	fs.Var(rangeValue[T]{p, unit, number(name, min, max)}, name, usage)
}

// listValue is a comma-separated list flag, parsed and checked as it is set.
type listValue[T any] struct {
	p     *[]T
	text  string
	parse func(string) ([]T, error)
}

func (l *listValue[T]) String() string { return l.text }

func (l *listValue[T]) Set(s string) error {
	v, err := l.parse(s)
	if err == nil {
		*l.p, l.text = v, s
	}
	return err
}

// ListVar registers a comma-separated list flag on fs. A default goes
// through the same parser as a value from the command line, so a default
// the parser refuses is a bug and panics; an empty one leaves *p nil.
func ListVar[T any](fs *flag.FlagSet, p *[]T, name, def, usage string, parse func(string) ([]T, error)) {
	l := &listValue[T]{p: p, parse: parse}
	if err := l.Set(def); def != "" && err != nil {
		panic(err)
	}
	fs.Var(l, name, usage)
}

// StacksVar registers -stacks.
func StacksVar(fs *flag.FlagSet, p *[]testbed.Kind, def string) {
	ListVar(fs, p, "stacks", def, "stacks to sweep (all or nfsv2,nfsv3,nfsv4,iscsi)", Stacks)
}

// TransportsVar registers -transports.
func TransportsVar(fs *flag.FlagSet, p *[]testbed.Transport, def string) {
	ListVar(fs, p, "transports", def, "wire models to sweep (fluid,udp,tcp)", Transports)
}

// WorkloadsVar registers -workloads against the experiment's known set.
func WorkloadsVar(fs *flag.FlagSet, p *[]string, def string, known []string) {
	ListVar(fs, p, "workloads", def, "workloads (all or "+strings.Join(known, ",")+")",
		func(s string) ([]string, error) { return workloads(s, known) })
}

// NumbersVar registers a comma-separated numeric list with every value in
// [min, max].
func NumbersVar[T int | float64](fs *flag.FlagSet, p *[]T, name, def string, min, max T, usage string) {
	ListVar(fs, p, name, def, usage, Each(name, nil, number(name, min, max)))
}
