// Command sanbench regenerates the paper's micro-benchmark figures
// (Figures 3–8) and the protocol ablations as text tables.
//
// Usage:
//
//	sanbench -fig 3            # latency breakdown (Fig. 3)
//	sanbench -fig 4            # latency + bandwidth, FT vs no-FT (Fig. 4)
//	sanbench -fig 5            # timer sweep, no errors (Fig. 5)
//	sanbench -fig 6            # timer sweep under errors (Fig. 6)
//	sanbench -fig 7            # queue sweep, no errors (Fig. 7)
//	sanbench -fig 8            # queue sweep under errors (Fig. 8)
//	sanbench -fig all          # everything
//	sanbench -ablations        # piggyback + feedback-policy ablations
//	sanbench -extensions -json # extension experiments as report JSON
//	sanbench -full             # paper-scale traffic (slow)
//
// A flag the selected mode does not read (say -json with -fig) is an
// error: exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"sanft"
	"sanft/internal/report"
)

var (
	fig        = flag.String("fig", "all", "figure to regenerate: 3,4,5,6,7,8 or all")
	full       = flag.Bool("full", false, "paper-scale traffic (≥10 drops even at 1e-4; slow)")
	ablations  = flag.Bool("ablations", false, "run the protocol ablations instead of figures")
	extensions = flag.Bool("extensions", false, "run the extension experiments (route quality, burst errors, state scaling, VI reliability levels)")
	asJSON     = flag.Bool("json", false, "emit extension reports as JSON (with -extensions)")
	seed       = flag.Int64("seed", 1, "simulation seed")
)

// modeFlags lists, per mode, every flag that mode reads.
var modeFlags = map[string][]string{
	"fig":        {"fig", "full", "seed"},
	"ablations":  {"ablations", "full", "seed"},
	"extensions": {"extensions", "full", "seed", "json"},
}

// mode names the run the parsed flags select: -ablations wins over
// -extensions, and figures are the default.
func mode() string {
	switch {
	case *ablations:
		return "ablations"
	case *extensions:
		return "extensions"
	}
	return "fig"
}

// strayFlags returns the flags set in fs that mode does not read.
func strayFlags(fs *flag.FlagSet, mode string) []string {
	var out []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(modeFlags[mode], f.Name) {
			out = append(out, "-"+f.Name)
		}
	})
	return out
}

func main() {
	flag.Parse()
	m := mode()
	if stray := strayFlags(flag.CommandLine, m); len(stray) > 0 {
		fmt.Fprintf(os.Stderr, "sanbench: %s not read in -%s mode\n", strings.Join(stray, ", "), m)
		os.Exit(2)
	}

	opt := sanft.Options{Seed: *seed}
	if *full {
		opt.MaxMessages = 400000
		opt.Sizes = sanft.PaperSizes
	}

	if *ablations {
		runAblations(opt)
		return
	}
	if *extensions {
		runExtensions(opt, *asJSON)
		return
	}

	start := time.Now()
	switch *fig {
	case "3":
		fmt.Println(sanft.RunFig3(opt))
	case "4":
		fmt.Println(sanft.RunFig4(opt))
	case "5":
		fmt.Println("Figure 5: retransmission-interval sweep, no errors (q=32)")
		fmt.Println(sanft.RunFig5(opt))
	case "6":
		fmt.Println("Figure 6: retransmission-interval sweep under errors (q=32)")
		fmt.Println(sanft.RunFig6(opt))
	case "7":
		fmt.Println("Figure 7: send-queue-size sweep, no errors (T=1ms)")
		fmt.Println(sanft.RunFig7(opt))
	case "8":
		fmt.Println("Figure 8: send-queue-size sweep under errors (T=1ms)")
		fmt.Println(sanft.RunFig8(opt))
	case "all":
		fmt.Println(sanft.RunFig3(opt))
		fmt.Println(sanft.RunFig4(opt))
		fmt.Println("Figure 5: retransmission-interval sweep, no errors (q=32)")
		fmt.Println(sanft.RunFig5(opt))
		fmt.Println("Figure 6: retransmission-interval sweep under errors (q=32)")
		fmt.Println(sanft.RunFig6(opt))
		fmt.Println("Figure 7: send-queue-size sweep, no errors (T=1ms)")
		fmt.Println(sanft.RunFig7(opt))
		fmt.Println("Figure 8: send-queue-size sweep under errors (T=1ms)")
		fmt.Println(sanft.RunFig8(opt))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	fmt.Printf("(regenerated in %v wall time)\n", time.Since(start).Round(time.Millisecond))
}

func runAblations(opt sanft.Options) {
	fmt.Println(sanft.RunAckAblation(4096, opt))
	fmt.Println(sanft.FeedbackAblationString(
		sanft.RunFeedbackAblation(65536, nil, nil, opt)))
}

func runExtensions(opt sanft.Options, asJSON bool) {
	for _, rep := range sanft.ExtensionReports(opt) {
		if err := report.Write(os.Stdout, rep, asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !asJSON {
			fmt.Println()
		}
	}
}
