package sim

import (
	"fmt"
	"time"
)

// Resource is a FIFO-serialized facility (a NIC queue, a PCIe direction, a
// QPI link, a socket's memory bus). Concurrent transfers through one
// Resource queue behind each other, which over time is equivalent to the
// bandwidth sharing the paper describes for congested PCI-Express lanes
// (§4.1: three concurrent flows each see one third of the bandwidth).
type Resource struct {
	k      *Kernel
	Name   string
	freeAt time.Duration
	busy   time.Duration // cumulative service time, for utilization
	uses   uint64
}

// NewResource creates a named resource on the kernel.
func (k *Kernel) NewResource(name string) *Resource {
	return &Resource{k: k, Name: name}
}

// Use reserves the resource for `service` starting no earlier than the
// current virtual time, and returns when the reservation ends. Callers
// are served in call order, which — because hops schedule their Use at
// actual arrival instants — is arrival order.
func (r *Resource) Use(service time.Duration) (end time.Duration) {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service %v on %s", service, r.Name))
	}
	start := r.k.now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + service
	r.freeAt = end
	r.busy += service
	r.uses++
	return end
}

// Busy returns the cumulative service time charged to this resource.
func (r *Resource) Busy() time.Duration { return r.busy }

// Uses returns the number of reservations made.
func (r *Resource) Uses() uint64 { return r.uses }
