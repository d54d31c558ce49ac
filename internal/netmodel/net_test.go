package netmodel

import (
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/sim"
)

func TestRateOver(t *testing.T) {
	r := Rate(1 * GB)
	if got := r.Over(1 * GB); got != time.Second {
		t.Fatalf("1GB over 1GB/s = %v, want 1s", got)
	}
	if got := r.Over(0); got != 0 {
		t.Fatalf("0 bytes must cost 0, got %v", got)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []*Platform{Cori(32), Stampede2(32), PSG(8)} {
		if p.NetBw <= 0 || p.ShmBw <= 0 || p.QpiBw <= 0 || p.ReduceCPUBw <= 0 {
			t.Errorf("%s: non-positive bandwidth", p.Name)
		}
		if p.NetAlpha < p.ShmAlpha {
			t.Errorf("%s: inter-node latency below shared-memory latency", p.Name)
		}
		if p.EagerLimit <= 0 {
			t.Errorf("%s: eager limit %d", p.Name, p.EagerLimit)
		}
	}
	if Cori(32).Topo.Size() != 1024 {
		t.Errorf("Cori(32) = %d ranks, want 1024", Cori(32).Topo.Size())
	}
	if Stampede2(32).Topo.Size() != 1536 {
		t.Errorf("Stampede2(32) = %d ranks, want 1536", Stampede2(32).Topo.Size())
	}
	if PSG(8).Topo.Size() != 32 || !PSG(8).Topo.HasGPUs() {
		t.Errorf("PSG(8) = %v", PSG(8).Topo)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"cori", "stampede2", "psg"} {
		if _, err := ByName(name, 2); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("bogus", 2); err == nil {
		t.Error("expected error for unknown platform")
	}
}

// A single intra-socket transfer must cost α_shm + m/β_shm.
func TestTransferIntraSocketCost(t *testing.T) {
	k := sim.New()
	p := Cori(1)
	n := NewNet(k, p)
	var sent, arrived time.Duration
	done := false
	k.Schedule(0, func() {
		n.StartTransfer(0, 1, 1*MB, comm.MemHost,
			func() { sent = k.Now() },
			func() {
				arrived = k.Now()
				n.Deliver(1, 1*MB, comm.MemHost, func() { done = true })
			})
	})
	k.MustRun()
	want := p.ShmAlpha + p.ShmBw.Over(1*MB)
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if sent != arrived { // single hop: buffer free when transfer done
		t.Fatalf("sent = %v, arrived = %v", sent, arrived)
	}
	if !done {
		t.Fatal("Deliver callback never fired")
	}
}

// An inter-node transfer crosses two NIC queues store-and-forward.
func TestTransferInterNodeCost(t *testing.T) {
	k := sim.New()
	p := Cori(2)
	n := NewNet(k, p)
	var sent, arrived time.Duration
	k.Schedule(0, func() {
		n.StartTransfer(0, 32, 4*MB, comm.MemHost,
			func() { sent = k.Now() },
			func() { arrived = k.Now() })
	})
	k.MustRun()
	ser := p.NetBw.Over(4 * MB)
	if want := p.NetAlpha + 2*ser; arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if want := p.NetAlpha + ser; sent != want {
		t.Fatalf("sent = %v, want %v", sent, want)
	}
}

// Two transfers out of the same node serialize on the NIC; transfers on
// different lanes overlap.
func TestNICSerializesButLanesOverlap(t *testing.T) {
	k := sim.New()
	p := Cori(2)
	n := NewNet(k, p)
	var tNet1, tNet2, tShm time.Duration
	k.Schedule(0, func() {
		n.StartTransfer(0, 32, 1*MB, comm.MemHost, nil, func() { tNet1 = k.Now() })
		n.StartTransfer(1, 33, 1*MB, comm.MemHost, nil, func() { tNet2 = k.Now() })
		n.StartTransfer(0, 2, 1*MB, comm.MemHost, nil, func() { tShm = k.Now() })
	})
	k.MustRun()
	if tNet2 <= tNet1 {
		t.Fatalf("second NIC transfer (%v) must finish after first (%v)", tNet2, tNet1)
	}
	// The shm transfer is independent of NIC congestion.
	if want := p.ShmAlpha + p.ShmBw.Over(1*MB); tShm != want {
		t.Fatalf("shm arrival = %v, want %v (no NIC interference)", tShm, want)
	}
	// NIC serialization: second transfer waits a full service time at tx.
	if tNet2-tNet1 < p.NetBw.Over(1*MB)/2 {
		t.Fatalf("NIC transfers overlapped too much: %v vs %v", tNet1, tNet2)
	}
}

// GPU transfers cross the source GPU's PCIe out-link; host-space sends
// from the same rank do not.
func TestGPURouteUsesPCIe(t *testing.T) {
	k := sim.New()
	p := PSG(2)
	n := NewNet(k, p)
	var devT, hostT time.Duration
	k.Schedule(0, func() {
		// Device → device across nodes: PCIe out + 2×NIC + PCIe in.
		n.StartTransfer(0, 4, 8*MB, comm.MemDefault, nil, func() {
			n.Deliver(4, 8*MB, comm.MemDefault, func() { devT = k.Now() })
		})
	})
	k.Schedule(0, func() {
		// Host → host same path length minus PCIe.
		n.StartTransfer(1, 5, 8*MB, comm.MemHost, nil, func() {
			n.Deliver(5, 8*MB, comm.MemHost, func() { hostT = k.Now() })
		})
	})
	k.MustRun()
	if devT <= hostT {
		t.Fatalf("device transfer (%v) must cost more than host transfer (%v)", devT, hostT)
	}
	pcie := 2*p.PCIeAlpha + 2*p.PCIeBw.Over(8*MB)
	if diff := devT - hostT; diff < pcie/2 || diff > pcie*2 {
		t.Fatalf("PCIe overhead %v implausible (expect around %v)", diff, pcie)
	}
}

// Same-socket device→device peers bypass NIC and QPI entirely.
func TestGPUPeerTransfer(t *testing.T) {
	k := sim.New()
	p := PSG(1)
	n := NewNet(k, p)
	var at time.Duration
	k.Schedule(0, func() {
		n.StartTransfer(0, 1, 4*MB, comm.MemDefault, nil, func() {
			n.Deliver(1, 4*MB, comm.MemDefault, func() { at = k.Now() })
		})
	})
	k.MustRun()
	want := 2*p.PCIeAlpha + p.ShmAlpha + 2*p.PCIeBw.Over(4*MB)
	if at != want {
		t.Fatalf("peer transfer = %v, want %v", at, want)
	}
}

func TestGPUReduceAndAsyncCopy(t *testing.T) {
	k := sim.New()
	p := PSG(1)
	n := NewNet(k, p)
	var reduceEnd, copyEnd time.Duration
	k.Schedule(0, func() {
		n.GPUReduce(0, 32*MB, func() { reduceEnd = k.Now() })
		n.AsyncCopy(0, 32*MB, comm.MemHost, comm.MemDevice, func() { copyEnd = k.Now() })
	})
	k.MustRun()
	if want := p.ReduceGPUBw.Over(32 * MB); reduceEnd != want {
		t.Fatalf("GPU reduce = %v, want %v", reduceEnd, want)
	}
	if want := p.PCIeAlpha + p.PCIeBw.Over(32*MB); copyEnd != want {
		t.Fatalf("async copy = %v, want %v", copyEnd, want)
	}
}

func TestCPUCost(t *testing.T) {
	n := NewNet(sim.New(), Cori(1))
	if n.CPUCost(1*MB, comm.ComputeReduce) <= 0 {
		t.Fatal("reduce cost must be positive")
	}
	if n.CPUCost(1*MB, comm.ComputeCopy) >= n.CPUCost(1*MB, comm.ComputeReduce) {
		t.Fatal("memcpy should beat reduction arithmetic")
	}
}

func TestWithTopoSubset(t *testing.T) {
	p := Cori(32)
	sub := p.WithTopo(p.Topo.Subset(256))
	if sub.Topo.Size() != 256 || sub.NetBw != p.NetBw {
		t.Fatalf("WithTopo broken: %v", sub)
	}
}

// NVLink peer transfers bypass PCIe and run at NVLink bandwidth.
func TestNVLinkPeerTransfer(t *testing.T) {
	k := sim.New()
	p := PSGNVLink(1)
	n := NewNet(k, p)
	var at time.Duration
	k.Schedule(0, func() {
		n.StartTransfer(0, 1, 4*MB, comm.MemDefault, nil, func() {
			n.DeliverFrom(0, 1, 4*MB, comm.MemDefault, func() { at = k.Now() })
		})
	})
	k.MustRun()
	want := p.NVLinkAlpha + 2*p.NVLinkBw.Over(4*MB)
	if at != want {
		t.Fatalf("NVLink peer transfer = %v, want %v", at, want)
	}
	// Much faster than the PCIe peer path on plain PSG.
	pcie := 2*PSG(1).PCIeAlpha + PSG(1).ShmAlpha + 2*PSG(1).PCIeBw.Over(4*MB)
	if at >= pcie {
		t.Fatalf("NVLink (%v) should beat PCIe peer path (%v)", at, pcie)
	}
}

// Cross-socket and cross-node GPU traffic still uses PCIe on the NVLink
// platform.
func TestNVLinkOnlyIntraSocket(t *testing.T) {
	k := sim.New()
	p := PSGNVLink(2)
	n := NewNet(k, p)
	var crossSock, crossNode time.Duration
	k.Schedule(0, func() {
		n.StartTransfer(0, 2, 4*MB, comm.MemDefault, nil, func() {
			n.DeliverFrom(0, 2, 4*MB, comm.MemDefault, func() { crossSock = k.Now() })
		})
	})
	k.MustRun()
	k2 := sim.New()
	n2 := NewNet(k2, p)
	k2.Schedule(0, func() {
		n2.StartTransfer(0, 4, 4*MB, comm.MemDefault, nil, func() {
			n2.DeliverFrom(0, 4, 4*MB, comm.MemDefault, func() { crossNode = k2.Now() })
		})
	})
	k2.MustRun()
	minPCIe := 2 * p.PCIeBw.Over(4*MB)
	if crossSock < minPCIe || crossNode < minPCIe {
		t.Fatalf("cross-socket (%v) / cross-node (%v) must still pay PCIe (≥%v)",
			crossSock, crossNode, minPCIe)
	}
}

// The transfer record's hop walk: on 0- to 3-hop routes afterFirst fires
// at the end of the first hop (after the route latency when there is
// none) and afterLast at the end of the last, each exactly once.
func TestTransferHopCallbacks(t *testing.T) {
	const size = 1 * MB
	cori, psg := Cori(2), PSG(2)
	cases := []struct {
		name     string
		p        *Platform
		src, dst int
		space    comm.MemSpace
		alpha    time.Duration
		hopCosts []time.Duration
		wantHops int
	}{
		{"0-hop self", cori, 0, 0, comm.MemHost, cori.ShmAlpha, nil, 0},
		{"1-hop intra-socket", cori, 0, 1, comm.MemHost, cori.ShmAlpha,
			[]time.Duration{cori.ShmBw.Over(size)}, 1},
		{"2-hop inter-node", cori, 0, 32, comm.MemHost, cori.NetAlpha,
			[]time.Duration{cori.NetBw.Over(size), cori.NetBw.Over(size)}, 2},
		{"3-hop GPU inter-node", psg, 0, 4, comm.MemDevice, psg.PCIeAlpha + psg.NetAlpha,
			[]time.Duration{psg.PCIeBw.Over(size), psg.NetBw.Over(size), psg.NetBw.Over(size)}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			n := NewNet(k, tc.p)
			var first, last []time.Duration
			k.Schedule(0, func() {
				n.StartTransfer(tc.src, tc.dst, size, tc.space,
					func() { first = append(first, k.Now()) },
					func() { last = append(last, k.Now()) })
			})
			k.MustRun()
			wantFirst, wantLast := tc.alpha, tc.alpha
			for i, c := range tc.hopCosts {
				if i == 0 {
					wantFirst += c
				}
				wantLast += c
			}
			if len(first) != 1 || first[0] != wantFirst {
				t.Errorf("afterFirst fired at %v, want once at %v", first, wantFirst)
			}
			if len(last) != 1 || last[0] != wantLast {
				t.Errorf("afterLast fired at %v, want once at %v", last, wantLast)
			}
			if got := k.Stats().Dispatched; got != uint64(2+tc.wantHops) {
				t.Errorf("%d events dispatched, want %d (start, latency, one per hop)", got, 2+tc.wantHops)
			}
		})
	}
}

// A transfer started from inside afterLast draws the record the finished
// transfer just released: the chain runs on one record, and the second
// transfer's timing and callbacks are its own.
func TestTransferRestartFromAfterLast(t *testing.T) {
	const size = 1 * MB
	k := sim.New()
	p := PSG(2)
	n := NewNet(k, p)
	var firstEnd, secondSent, secondEnd time.Duration
	firstSent := 0
	k.Schedule(0, func() {
		n.StartTransfer(0, 4, size, comm.MemDevice, func() { firstSent++ }, func() {
			firstEnd = k.Now()
			if len(n.free) != 1 {
				t.Errorf("free-list holds %d records inside afterLast, want the released one", len(n.free))
			}
			n.StartTransfer(0, 1, size, comm.MemHost,
				func() { secondSent = k.Now() },
				func() { secondEnd = k.Now() })
		})
	})
	k.MustRun()
	if firstSent != 1 {
		t.Errorf("first transfer's afterFirst fired %d times, want 1", firstSent)
	}
	want := firstEnd + p.ShmAlpha + p.ShmBw.Over(size)
	if secondSent != want || secondEnd != want {
		t.Errorf("second transfer sent/arrived at %v/%v, want %v", secondSent, secondEnd, want)
	}
	if len(n.free) != 1 {
		t.Errorf("free-list holds %d records after the chain, want 1", len(n.free))
	}
}
