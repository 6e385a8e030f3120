package sanft

import (
	"fmt"
	"time"

	"sanft/internal/apps"
	"sanft/internal/core"
	"sanft/internal/microbench"
	"sanft/internal/report"
	"sanft/internal/stats"
)

// ---------------------------------------------------------------------------
// Figure 3 — latency breakdown for 4-byte messages
// ---------------------------------------------------------------------------

// Fig3Result holds the five-stage one-way latency breakdown of a 4-byte
// message, with and without the retransmission protocol.
type Fig3Result struct {
	NoFT stats.Breakdown
	FT   stats.Breakdown
}

// RunFig3 regenerates Figure 3.
func RunFig3(opt Options) Fig3Result {
	opt = opt.defaults()
	iters := 30
	no := microbench.Latency(twoNode(false, 32, time.Millisecond, 0, opt.Seed), 4, iters)
	ft := microbench.Latency(twoNode(true, 32, time.Millisecond, 0, opt.Seed), 4, iters)
	return Fig3Result{NoFT: no.Breakdown, FT: ft.Breakdown}
}

func (r Fig3Result) String() string {
	rows := [][]string{
		{"host-send", r.NoFT.HostSend.String(), r.FT.HostSend.String()},
		{"nic-send", r.NoFT.NICSend.String(), r.FT.NICSend.String()},
		{"wire", r.NoFT.Wire.String(), r.FT.Wire.String()},
		{"nic-recv", r.NoFT.NICRecv.String(), r.FT.NICRecv.String()},
		{"host-recv", r.NoFT.HostRecv.String(), r.FT.HostRecv.String()},
		{"TOTAL", r.NoFT.Total().String(), r.FT.Total().String()},
	}
	return "Figure 3: 4-byte one-way latency breakdown\n" +
		report.Grid([]string{"stage", "no-FT", "with-FT"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 4 — latency and bandwidth, FT vs no-FT
// ---------------------------------------------------------------------------

// Fig4LatencyRow compares one-way latency for one message size.
type Fig4LatencyRow struct {
	Size int
	NoFT time.Duration
	FT   time.Duration
}

// Fig4BandwidthRow compares bandwidth for one message size.
type Fig4BandwidthRow struct {
	Size    int
	PPNoFT  float64
	PPFT    float64
	UniNoFT float64
	UniFT   float64
}

// Fig4Result regenerates both panels of Figure 4.
type Fig4Result struct {
	Latency   []Fig4LatencyRow   // small messages, 4–64 B
	Bandwidth []Fig4BandwidthRow // 4 B – 1 MB
}

// RunFig4 regenerates Figure 4 (T=1ms, q=32, no errors).
func RunFig4(opt Options) Fig4Result {
	opt = opt.defaults()
	var res Fig4Result
	for _, size := range []int{4, 8, 16, 32, 64} {
		no := microbench.Latency(twoNode(false, 32, time.Millisecond, 0, opt.Seed), size, 20)
		ft := microbench.Latency(twoNode(true, 32, time.Millisecond, 0, opt.Seed), size, 20)
		res.Latency = append(res.Latency, Fig4LatencyRow{Size: size, NoFT: no.OneWay, FT: ft.OneWay})
	}
	sizes := opt.Sizes
	if sizes == nil {
		sizes = PaperSizes
	}
	for _, size := range sizes {
		n := opt.iters(size, 0)
		row := Fig4BandwidthRow{Size: size}
		row.PPNoFT = microbench.PingPong(twoNode(false, 32, time.Millisecond, 0, opt.Seed), size, n).MBps
		row.PPFT = microbench.PingPong(twoNode(true, 32, time.Millisecond, 0, opt.Seed), size, n).MBps
		row.UniNoFT = microbench.Unidirectional(twoNode(false, 32, time.Millisecond, 0, opt.Seed), size, n).MBps
		row.UniFT = microbench.Unidirectional(twoNode(true, 32, time.Millisecond, 0, opt.Seed), size, n).MBps
		res.Bandwidth = append(res.Bandwidth, row)
	}
	return res
}

func (r Fig4Result) String() string {
	var rows [][]string
	for _, l := range r.Latency {
		rows = append(rows, []string{fmt.Sprint(l.Size), l.NoFT.String(), l.FT.String(),
			(l.FT - l.NoFT).String()})
	}
	out := "Figure 4 (left): one-way latency, small messages\n" +
		report.Grid([]string{"size", "no-FT", "with-FT", "overhead"}, rows)
	rows = nil
	for _, b := range r.Bandwidth {
		rows = append(rows, []string{fmt.Sprint(b.Size),
			fmt.Sprintf("%.1f", b.PPNoFT), fmt.Sprintf("%.1f", b.PPFT),
			fmt.Sprintf("%.1f", b.UniNoFT), fmt.Sprintf("%.1f", b.UniFT)})
	}
	out += "\nFigure 4 (right): bandwidth MB/s (pp = ping-pong, uni = unidirectional)\n" +
		report.Grid([]string{"size", "pp-noFT", "pp-FT", "uni-noFT", "uni-FT"}, rows)
	return out
}

// ---------------------------------------------------------------------------
// Figures 5–8 — parameter sweeps
// ---------------------------------------------------------------------------

// SweepCell is one measured point of a parameter sweep: bandwidth at one
// (timer, queue, error rate, message size) combination.
type SweepCell struct {
	Timer     time.Duration
	Queue     int
	ErrorRate float64
	Size      int
	PingPong  float64 // MB/s
	Uni       float64 // MB/s
}

// SweepResult is a full sweep plus its no-FT baseline rows.
type SweepResult struct {
	Cells    []SweepCell
	Baseline []SweepCell // no-FT (q32), one per size
}

func runSweep(timers []time.Duration, queues []int, rates []float64, opt Options) SweepResult {
	opt = opt.defaults()
	sizes := opt.Sizes
	if sizes == nil {
		sizes = sweepSizes
	}
	var res SweepResult
	for _, size := range sizes {
		n := opt.iters(size, 0)
		res.Baseline = append(res.Baseline, SweepCell{
			Size:     size,
			PingPong: microbench.PingPong(twoNode(false, 32, time.Millisecond, 0, opt.Seed), size, n).MBps,
			Uni:      microbench.Unidirectional(twoNode(false, 32, time.Millisecond, 0, opt.Seed), size, n).MBps,
		})
	}
	for _, timer := range timers {
		for _, q := range queues {
			for _, rate := range rates {
				for _, size := range sizes {
					n := opt.iters(size, rate)
					cell := SweepCell{Timer: timer, Queue: q, ErrorRate: rate, Size: size}
					cell.PingPong = microbench.PingPong(twoNode(true, q, timer, rate, opt.Seed), size, n).MBps
					cell.Uni = microbench.Unidirectional(twoNode(true, q, timer, rate, opt.Seed), size, n).MBps
					res.Cells = append(res.Cells, cell)
				}
			}
		}
	}
	return res
}

// RunFig5 regenerates Figure 5: the retransmission-interval sweep with no
// errors (q=32).
func RunFig5(opt Options) SweepResult {
	return runSweep(PaperTimers, []int{32}, []float64{0}, opt)
}

// RunFig6 regenerates Figure 6: the retransmission-interval sweep under
// injected errors (q=32, rates 10⁻²…10⁻⁴).
func RunFig6(opt Options) SweepResult {
	return runSweep(PaperTimers, []int{32}, PaperErrorRates, opt)
}

// RunFig7 regenerates Figure 7: the send-queue-size sweep with no errors
// (T=1ms).
func RunFig7(opt Options) SweepResult {
	return runSweep([]time.Duration{time.Millisecond}, PaperQueues, []float64{0}, opt)
}

// RunFig8 regenerates Figure 8: the send-queue-size sweep under injected
// errors (T=1ms).
func RunFig8(opt Options) SweepResult {
	return runSweep([]time.Duration{time.Millisecond}, PaperQueues, PaperErrorRates, opt)
}

// String renders the sweep as the two bandwidth tables of the figures.
func (r SweepResult) String() string {
	header := []string{"timer", "queue", "err-rate", "size", "pp-MB/s", "uni-MB/s"}
	var rows [][]string
	for _, c := range r.Baseline {
		rows = append(rows, []string{"-", "32 (no-FT)", "0", fmt.Sprint(c.Size),
			fmt.Sprintf("%.1f", c.PingPong), fmt.Sprintf("%.1f", c.Uni)})
	}
	for _, c := range r.Cells {
		rows = append(rows, []string{fmtTimer(c.Timer), fmt.Sprint(c.Queue),
			fmt.Sprintf("%g", c.ErrorRate), fmt.Sprint(c.Size),
			fmt.Sprintf("%.1f", c.PingPong), fmt.Sprintf("%.1f", c.Uni)})
	}
	return report.Grid(header, rows)
}

// ---------------------------------------------------------------------------
// Figure 9 — application execution-time breakdowns
// ---------------------------------------------------------------------------

// Fig9Config is one of the figure's four parameter bars.
type Fig9Config struct {
	Timer time.Duration
	Queue int
}

// PaperFig9Configs returns the four bars of each Figure 9 group:
// r100µs–q2, r100µs–q32, r1ms–q2, r1ms–q32.
func PaperFig9Configs() []Fig9Config {
	return []Fig9Config{
		{100 * time.Microsecond, 2},
		{100 * time.Microsecond, 32},
		{time.Millisecond, 2},
		{time.Millisecond, 32},
	}
}

// Fig9ErrorRates are the figure's groups: 0, 10⁻⁴, 10⁻³.
var Fig9ErrorRates = []float64{0, 1e-4, 1e-3}

// Fig9Cell is one bar: an application's execution breakdown at one
// (error rate, timer, queue) configuration.
type Fig9Cell struct {
	App       string
	ErrorRate float64
	Timer     time.Duration
	Queue     int
	Elapsed   time.Duration
	Breakdown SVMBreakdown // max across workers (critical-path view)
	// Drops counts the error-injected packet losses the run actually
	// experienced. A zero here at a non-zero rate means the scaled
	// problem moved too few packets for this rate — rerun with
	// PaperFig9 sizes to exercise it (the paper lengthened runs for
	// exactly this reason).
	Drops uint64
}

// Fig9Scale selects problem sizes: scaled instances that preserve each
// application's communication character, or the paper's Table 2 sizes.
type Fig9Scale int

const (
	// ScaledFig9 uses CI-friendly problem sizes.
	ScaledFig9 Fig9Scale = iota
	// PaperFig9 uses the Table 2 sizes (much slower).
	PaperFig9
)

// RunFig9 regenerates Figure 9 for the named applications ("fft",
// "radix", "water"; nil = all three).
func RunFig9(appNames []string, rates []float64, configs []Fig9Config, scale Fig9Scale, opt Options) ([]Fig9Cell, error) {
	opt = opt.defaults()
	if appNames == nil {
		appNames = []string{"fft", "radix", "water"}
	}
	if rates == nil {
		rates = Fig9ErrorRates
	}
	if configs == nil {
		configs = PaperFig9Configs()
	}
	var out []Fig9Cell
	for _, name := range appNames {
		for _, rate := range rates {
			for _, cfg := range configs {
				c := fourNode(cfg.Queue, cfg.Timer, rate, opt.Seed)
				res, err := runApp(c, name, scale)
				if err != nil {
					return out, fmt.Errorf("fig9 %s r=%v q=%d e=%g: %w", name, cfg.Timer, cfg.Queue, rate, err)
				}
				var drops uint64
				for i := range c.Hosts {
					drops += c.NICAt(i).Counters().Get("err-injected-drops")
				}
				out = append(out, Fig9Cell{
					App:       name,
					ErrorRate: rate,
					Timer:     cfg.Timer,
					Queue:     cfg.Queue,
					Elapsed:   res.Elapsed,
					Breakdown: res.Max,
					Drops:     drops,
				})
			}
		}
	}
	return out, nil
}

func runApp(c *core.Cluster, name string, scale Fig9Scale) (AppResult, error) {
	switch name {
	case "fft":
		p := apps.FFTParams{LogN: 12, Iters: 3}
		if scale == PaperFig9 {
			p = apps.PaperFFTParams()
		}
		return apps.RunFFT(c, p)
	case "radix":
		p := apps.RadixParams{Keys: 1 << 16, Iters: 1}
		if scale == PaperFig9 {
			p = apps.PaperRadixParams()
		}
		return apps.RunRadix(c, p)
	case "water":
		p := apps.WaterParams{Molecules: 343, Steps: 2}
		if scale == PaperFig9 {
			p = apps.PaperWaterParams()
		}
		return apps.RunWater(c, p)
	default:
		return AppResult{}, fmt.Errorf("unknown application %q", name)
	}
}

// fig9Rows renders cells into the shared header/row shape used by both
// the text and report forms.
func fig9Rows(cells []Fig9Cell) ([]string, [][]string) {
	header := []string{"app", "err-rate", "config", "compute", "data", "lock", "barrier", "elapsed", "drops"}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			c.App, fmt.Sprintf("%g", c.ErrorRate),
			fmt.Sprintf("r%s-q%d", fmtTimer(c.Timer), c.Queue),
			c.Breakdown.Compute.String(), c.Breakdown.Data.String(),
			c.Breakdown.Lock.String(), c.Breakdown.Barrier.String(),
			c.Elapsed.String(), fmt.Sprint(c.Drops),
		})
	}
	return header, rows
}

// Fig9String renders cells grouped the way the figure is.
func Fig9String(cells []Fig9Cell) string {
	header, rows := fig9Rows(cells)
	return "Figure 9: application execution-time breakdowns (max across workers)\n" +
		report.Grid(header, rows)
}

// Fig9Report renders cells as the unified report.Table, so sanapp -json
// emits the same machine-readable shape as every other CLI.
func Fig9Report(cells []Fig9Cell) *report.Table {
	header, rows := fig9Rows(cells)
	return &report.Table{
		Name:   "Figure 9: application execution-time breakdowns (max across workers)",
		Header: header,
		Cells:  rows,
	}
}
