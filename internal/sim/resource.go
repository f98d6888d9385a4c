package sim

import (
	"fmt"
	"time"
)

// Resource models a serially-occupied device: a network link direction, a
// disk arm, a CPU. A request arriving at time t begins service at
// max(t, busyUntil) and holds the resource for its service time. The zero
// value is an idle resource ready for use.
//
// Resource additionally accounts total busy time, so callers can derive
// utilization over any elapsed window.
//
// A resource can carry closed-form fluid background load (SetBackground):
// a fraction rho of its capacity is consumed by an aggregate of clients
// that are not mechanistically simulated, so every foreground acquisition
// is served at the residual rate 1-rho — the processor-sharing limit of
// interleaving with stationary background traffic. This is the hybrid
// fluid/mechanistic hook internal/fleet injects cohort load through.
type Resource struct {
	busyUntil time.Duration
	busy      time.Duration // cumulative service time (stretched)
	bg        float64       // fluid background utilization in [0, 1)
}

// SetBackground declares that fraction rho of the resource's capacity is
// consumed by fluid background load. Foreground service times stretch by
// 1/(1-rho) from now on. A rho outside [0, 1), NaN included, is an error
// and changes nothing: a background load that saturates the resource has no
// residual capacity to simulate against.
func (r *Resource) SetBackground(rho float64) error {
	if !(rho >= 0 && rho < 1) {
		return fmt.Errorf("sim: background utilization %g outside [0, 1)", rho)
	}
	r.bg = rho
	return nil
}

// background reports the fluid background utilization (0 when none).
func (r *Resource) background() float64 { return r.bg }

// stretch expands a foreground service time to the residual-capacity rate.
func (r *Resource) stretch(service time.Duration) time.Duration {
	if r.bg <= 0 || service <= 0 {
		return service
	}
	return time.Duration(float64(service) / (1 - r.bg))
}

// Acquire occupies the resource for service, starting no earlier than
// start. It returns the completion time. Under fluid background load the
// occupancy is the stretched residual-rate service time.
func (r *Resource) Acquire(start, service time.Duration) (done time.Duration) {
	if service < 0 {
		service = 0
	}
	service = r.stretch(service)
	begin := start
	if r.busyUntil > begin {
		begin = r.busyUntil
	}
	done = begin + service
	r.busyUntil = done
	r.busy += service
	return done
}

// BusyUntil reports the earliest time the resource is next free.
func (r *Resource) BusyUntil() time.Duration { return r.busyUntil }

// Busy reports cumulative busy (service) time.
func (r *Resource) Busy() time.Duration { return r.busy }
