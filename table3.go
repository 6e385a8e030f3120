package sanft

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Table3Row is one row of the paper's Table 3: the cost of on-demand
// mapping to a node at a given switch distance on the Figure 2 testbed.
type Table3Row struct {
	Hops         int
	HostProbes   int
	SwitchProbes int
	Total        int
	MapTime      time.Duration
}

// RunTable3 regenerates Table 3: for each hop count 1–4, a fresh Figure 2
// system maps on demand from the mapper host to a target that many
// switches away, counting probe messages and elapsed time.
func RunTable3(opt Options) []Table3Row {
	opt = opt.defaults()
	rows := make([]Table3Row, 0, 4)
	for hop := 0; hop < 4; hop++ {
		f := topology.NewFig2()
		c := core.New(core.Config{
			Net:     f.Net,
			Hosts:   f.Net.Hosts(),
			FT:      true,
			Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond},
			Seed:    opt.Seed,
		})
		m := mapping.New(c.K, c.NIC(f.Mapper), mapping.Config{})
		var st mapping.Stats
		var ok bool
		target := f.Targets[hop]
		c.K.Spawn("table3", func(p *sim.Proc) {
			_, _, st, ok = m.MapTo(p, target)
			c.StopSoon()
		})
		c.RunFor(time.Minute)
		c.Stop()
		if !ok {
			panic(fmt.Sprintf("table3: mapping to %d-hop target failed", hop+1))
		}
		rows = append(rows, Table3Row{
			Hops:         hop + 1,
			HostProbes:   st.HostProbes,
			SwitchProbes: st.SwitchProbes,
			Total:        st.Total(),
			MapTime:      st.Elapsed,
		})
	}
	return rows
}

// Table3String renders the rows like the paper's table.
func Table3String(rows []Table3Row) string {
	header := []string{"#hops", "host-probes", "switch-probes", "total", "map-time"}
	var rs [][]string
	for _, r := range rows {
		rs = append(rs, []string{
			fmt.Sprint(r.Hops), fmt.Sprint(r.HostProbes), fmt.Sprint(r.SwitchProbes),
			fmt.Sprint(r.Total), r.MapTime.String(),
		})
	}
	return "Table 3: on-demand mapping cost vs switch distance (Fig. 2 testbed)\n" +
		report.Grid(header, rs)
}
