package topology

import (
	"fmt"
	"math/rand"

	"sanft/internal/parsim"
)

// Star builds the micro-benchmark topology: n hosts on a single full
// crossbar switch (radix is rounded up to at least n). Returns the network
// and the host IDs.
func Star(n int) (*Network, []NodeID) {
	if n < 1 {
		panic("topology: star needs at least one host")
	}
	radix := n
	if radix < 8 {
		radix = 8
	}
	nw := New()
	sw := nw.AddSwitch("sw0", radix)
	hosts := make([]NodeID, n)
	for i := range hosts {
		h := nw.AddHost(fmt.Sprintf("host%d", i))
		nw.Connect(h, 0, sw, i)
		hosts[i] = h
	}
	return nw, hosts
}

// Chain builds k switches in a line, each pair joined by `width` parallel
// links, with hostsPer hosts on each switch. Parallel links provide the
// redundancy that permanent-failure experiments exercise.
func Chain(k, hostsPer, width int) (*Network, [][]NodeID) {
	if k < 1 || hostsPer < 0 || width < 1 {
		panic("topology: bad chain parameters")
	}
	radix := hostsPer + 2*width
	if radix < 4 {
		radix = 4
	}
	nw := New()
	sws := make([]NodeID, k)
	for i := range sws {
		sws[i] = nw.AddSwitch(fmt.Sprintf("sw%d", i), radix)
	}
	for i := 0; i+1 < k; i++ {
		for w := 0; w < width; w++ {
			nw.ConnectAny(sws[i], sws[i+1])
		}
	}
	hosts := make([][]NodeID, k)
	for i, sw := range sws {
		for j := 0; j < hostsPer; j++ {
			h := nw.AddHost(fmt.Sprintf("h%d_%d", i, j))
			nw.ConnectAny(h, sw)
			hosts[i] = append(hosts[i], h)
		}
	}
	return nw, hosts
}

// Ring builds k switches in a cycle (one link per adjacent pair) with
// hostsPer hosts each. Rings admit cyclic channel dependencies, so routes
// chosen without regard to deadlock freedom can genuinely deadlock — used
// by the deadlock-recovery tests.
func Ring(k, hostsPer int) (*Network, [][]NodeID) {
	if k < 3 {
		panic("topology: ring needs at least 3 switches")
	}
	radix := hostsPer + 2
	if radix < 4 {
		radix = 4
	}
	nw := New()
	sws := make([]NodeID, k)
	for i := range sws {
		sws[i] = nw.AddSwitch(fmt.Sprintf("sw%d", i), radix)
	}
	for i := 0; i < k; i++ {
		nw.ConnectAny(sws[i], sws[(i+1)%k])
	}
	hosts := make([][]NodeID, k)
	for i, sw := range sws {
		for j := 0; j < hostsPer; j++ {
			h := nw.AddHost(fmt.Sprintf("h%d_%d", i, j))
			nw.ConnectAny(h, sw)
			hosts[i] = append(hosts[i], h)
		}
	}
	return nw, hosts
}

// Fig2 describes the paper's Figure 2 mapping testbed.
type Fig2 struct {
	Net *Network
	// Switches: two 16-port (S0, S1) and two 8-port (S2, S3) full
	// crossbars, joined in a chain with doubled (redundant) links:
	// S0==S1==S2==S3.
	Switches [4]NodeID
	// Mapper is the host that initiates on-demand mapping, attached to S0.
	Mapper NodeID
	// Targets[h] is a host whose shortest path from Mapper crosses h+1
	// switches (the paper's "# Hops (i.e. Links)" column, 1..4).
	Targets [4]NodeID
	// HostsAt[i] lists all hosts attached to switch i (including Mapper
	// and Targets).
	HostsAt [4][]NodeID
}

// NewFig2 builds the four-switch redundant tree used for the Table 3
// dynamic-mapping experiments: two 16-port and two 8-port full-crossbar
// switches with doubled inter-switch links (no single point of failure on
// the switch backbone), and hosts spread across all four switches. The
// mapper host sits on S0; target hosts sit at switch distances 1–4.
func NewFig2() *Fig2 {
	nw := New()
	f := &Fig2{Net: nw}
	f.Switches[0] = nw.AddSwitch("S0", 16)
	f.Switches[1] = nw.AddSwitch("S1", 16)
	f.Switches[2] = nw.AddSwitch("S2", 8)
	f.Switches[3] = nw.AddSwitch("S3", 8)
	// Redundant backbone: two parallel links between each adjacent pair.
	for i := 0; i < 3; i++ {
		nw.ConnectAny(f.Switches[i], f.Switches[i+1])
		nw.ConnectAny(f.Switches[i], f.Switches[i+1])
	}
	hostsPer := [4]int{8, 8, 4, 4}
	for i, sw := range f.Switches {
		for j := 0; j < hostsPer[i]; j++ {
			h := nw.AddHost(fmt.Sprintf("n%d_%d", i, j))
			nw.ConnectAny(h, sw)
			f.HostsAt[i] = append(f.HostsAt[i], h)
		}
	}
	f.Mapper = f.HostsAt[0][0]
	f.Targets[0] = f.HostsAt[0][1] // same switch: 1 switch on path
	f.Targets[1] = f.HostsAt[1][0]
	f.Targets[2] = f.HostsAt[2][0]
	f.Targets[3] = f.HostsAt[3][0]
	return f
}

// DoubleStar builds two switches joined by two parallel links with half the
// hosts on each — the smallest topology with full path redundancy, used by
// the failover example.
func DoubleStar(nHosts int) (*Network, []NodeID) {
	if nHosts < 2 {
		panic("topology: double star needs at least 2 hosts")
	}
	per := (nHosts + 1) / 2
	radix := per + 2
	if radix < 8 {
		radix = 8
	}
	nw := New()
	s0 := nw.AddSwitch("sw0", radix)
	s1 := nw.AddSwitch("sw1", radix)
	nw.ConnectAny(s0, s1)
	nw.ConnectAny(s0, s1)
	hosts := make([]NodeID, nHosts)
	for i := range hosts {
		h := nw.AddHost(fmt.Sprintf("host%d", i))
		sw := s0
		if i >= per {
			sw = s1
		}
		nw.ConnectAny(h, sw)
		hosts[i] = h
	}
	return nw, hosts
}

// Random builds a connected random topology with nSwitches switches of the
// given radix and nHosts hosts attached to random switches. Extra random
// switch-to-switch links are added until avgDegree is reached (or ports run
// out). Deterministic for a given seed.
//
// Connectivity comes from a random spanning tree: switch i links to a
// switch drawn from those before it, or, when the drawn one has no free
// port, to the next earlier one that has. The i earlier switches hold
// i·radix ports and their tree uses 2(i−1), so with radix 2 or more one
// always has; Random panics on a smaller radix, naming it and the switch
// count.
//
// The seed is finalized through parsim.ShardSeed — the same per-shard RNG
// discipline every engine component uses — rather than fed to math/rand
// raw, so adjacent seeds (the common "replica i uses seed base+i" pattern
// under the sharded engine and campaign grids) draw from uncorrelated
// streams and a topology built inside any shard is reproducible from
// (seed) alone.
func Random(nHosts, nSwitches, radix int, avgDegree float64, seed int64) (*Network, []NodeID) {
	if nSwitches < 1 || nHosts < 0 {
		panic("topology: bad random parameters")
	}
	if radix < 2 {
		panic(fmt.Sprintf("topology: Random cannot connect %d switches of radix %d (a tree needs radix 2)", nSwitches, radix))
	}
	rng := rand.New(rand.NewSource(parsim.ShardSeed(seed, 0)))
	nw := New()
	sws := make([]NodeID, nSwitches)
	for i := range sws {
		sws[i] = nw.AddSwitch(fmt.Sprintf("sw%d", i), radix)
	}
	// Random spanning tree first, to guarantee connectivity.
	for i := 1; i < nSwitches; i++ {
		j := rng.Intn(i)
		for nw.Node(sws[j]).FreePort() < 0 {
			j = (j + i - 1) % i // the next earlier switch, wrapping to i-1
		}
		nw.ConnectAny(sws[i], sws[j])
	}
	// Extra links up to the requested average switch degree.
	target := int(avgDegree*float64(nSwitches)/2) - (nSwitches - 1)
	for e := 0; e < target; e++ {
		a, b := rng.Intn(nSwitches), rng.Intn(nSwitches)
		if a == b {
			continue
		}
		if nw.Node(sws[a]).FreePort() < 0 || nw.Node(sws[b]).FreePort() < 0 {
			continue
		}
		nw.ConnectAny(sws[a], sws[b])
	}
	hosts := make([]NodeID, 0, nHosts)
	for i := 0; i < nHosts; i++ {
		sw := sws[rng.Intn(nSwitches)]
		if nw.Node(sw).FreePort() < 0 {
			// Find any switch with a free port.
			found := false
			for _, s := range sws {
				if nw.Node(s).FreePort() >= 0 {
					sw, found = s, true
					break
				}
			}
			if !found {
				break
			}
		}
		h := nw.AddHost(fmt.Sprintf("host%d", i))
		nw.ConnectAny(h, sw)
		hosts = append(hosts, h)
	}
	return nw, hosts
}
