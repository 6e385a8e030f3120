// Failover: a permanent switch-trunk failure strikes mid-stream. The
// retransmission protocol keeps the data safe, the stale-path detector
// classifies the failure as permanent, and the on-demand mapper discovers
// the redundant trunk and resumes traffic over it — no application
// involvement, no central map manager, no full network remap (§4.2).
package main

import (
	"fmt"
	"time"

	"sanft"
)

func main() {
	// Two switches joined by two parallel trunks, four hosts.
	nw, hosts := sanft.DoubleStar(4)
	rc := sanft.DefaultParams()
	rc.PermFailThreshold = 10 * time.Millisecond // fast classification for the demo
	cluster := sanft.New(
		sanft.WithTopology(nw, hosts),
		sanft.WithRetrans(rc),
		sanft.WithFaultTolerance(),
		sanft.WithMapper(), // wire the on-demand mapper to the stale-path detector
		sanft.WithSeed(7),
	)

	src, dst := cluster.EndpointAt(0), cluster.EndpointAt(3) // opposite switches
	inbox := dst.Export("inbox", 4096)

	// Identify the trunk the initial route uses, so we can kill it.
	route, _ := cluster.NICAt(0).Route(dst.Node())
	fmt.Printf("initial route %v\n", route)

	const messages = 40
	cluster.K.Spawn("sender", func(p *sanft.Proc) {
		imp, err := src.Import(dst.Node(), "inbox")
		if err != nil {
			panic(err)
		}
		for i := 0; i < messages; i++ {
			imp.Send(p, 0, []byte(fmt.Sprintf("block %02d", i)), true)
			p.Sleep(200 * time.Microsecond)
		}
	})

	received := 0
	cluster.K.Spawn("receiver", func(p *sanft.Proc) {
		seen := map[string]bool{}
		for received < messages {
			n := inbox.WaitNotification(p)
			msg := string(inbox.Mem[n.Offset : n.Offset+n.Len])
			if !seen[msg] { // remaps are at-least-once; dedup for display
				seen[msg] = true
				received++
			}
		}
		fmt.Printf("[%8v] all %d blocks received\n", p.Now(), received)
	})

	// 2 ms in: sever the trunk the route crosses. The fabric flushes the
	// in-flight worm; everything queued is silently lost on the wire.
	cluster.K.After(2*time.Millisecond, func() {
		sw := nw.Switches()[0]
		trunk := nw.Node(sw).Ports[route[0]]
		cluster.Fab.KillLink(trunk)
		fmt.Printf("[%8v] !!! trunk severed (link %d)\n", cluster.Now(), trunk.ID)
	})

	cluster.RunFor(2 * time.Second)
	cluster.Stop()

	newRoute, ok := cluster.NICAt(0).Route(dst.Node())
	fmt.Printf("remaps completed: %d\n", cluster.Metrics().CounterTotal("remap.successes"))
	fmt.Printf("new route %v (ok=%v, changed=%v)\n", newRoute, ok, !newRoute.Equal(route))
	fmt.Printf("delivered %d/%d distinct blocks across the permanent failure\n", received, messages)
	fmt.Printf("sender NIC: %s\n", cluster.NICAt(0).Counters())
}
