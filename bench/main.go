// Command bench is the repository's benchmark: four host-time workloads
// over the simulator (the paper's figures, a fat-tree SLO grid, a
// 1024-host flap storm, the chaos campaign suite), measured end to end
// and, with -trace 1, layer by layer. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload chaos-suite -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -seed 1 -record .bench_build/runs/a1.json   # all workloads
//	bash bench/run.sh -compare ../runs/parent ../runs/change
//	bash bench/run.sh -ledger .bench_build/ledger > bench/results/latest.json
//	bash bench/run.sh -update-golden
//
// With -workload the process runs that one workload and prints its
// metrics, its digest, and as its last line the JSON result. Without it,
// the process re-executes itself once per workload, one child at a time,
// so each workload's peak RSS and GC state are its own.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// traceDir holds span logs and CPU profiles of traced runs, relative to
// the working directory.
const traceDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "", "run one workload (default: every workload, one child process each)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "time budget per workload (BENCHMARK.json's run_seconds); passes repeat until it is spent")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	record := flag.String("record", "", "write the run's JSON record, with the machine header, to this file")
	date := flag.String("date", "", "date stamped into the record's machine header")
	update := flag.Bool("update-golden", false, "re-pin golden.json digests at seeds 1 and 2")
	compareMode := flag.Bool("compare", false, "compare two directories of records: -compare <parent> <change>")
	ledgerMode := flag.Bool("ledger", false, "summarise a directory of records as a ledger entry: -ledger <dir>")
	flag.Parse()

	var err error
	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two record directories")
			break
		}
		err = compare(flag.Arg(0), flag.Arg(1))
	case *ledgerMode:
		if flag.NArg() != 1 {
			err = fmt.Errorf("-ledger needs one record directory")
			break
		}
		err = ledger(flag.Arg(0), os.Stdout)
	case *name != "":
		err = child(*name, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1,
			scale: 1, outDir: traceDir, updateGolden: *update})
	case *update:
		err = updateGoldens()
	default:
		err = parent(*seed, *seconds, *trace, *record, *date)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// child runs one workload and prints its result in the benchmark's
// output contract.
func child(name string, o runOpts) error {
	w, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	res, digest := runWorkload(w, o)
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("%s %s %s %s\n", name, d.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Printf("digest %s %d %s\n", name, o.seed, digest)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// childOutput is what the parent keeps of one child run.
type childOutput struct {
	res    result
	digest string
}

// runChild re-executes this binary for one workload, forwarding its
// metric lines and parsing its digest and JSON result.
func runChild(name string, args ...string) (childOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return childOutput{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var co childOutput
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "digest" {
			co.digest = f[3]
		}
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		fmt.Println(line)
	}
	if runErr != nil {
		return co, fmt.Errorf("workload %s: %w", name, runErr)
	}
	if err := json.Unmarshal([]byte(last), &co.res); err != nil {
		return co, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	return co, nil
}

// record is one parent run: every workload at one seed, with the machine
// it ran on. -compare and -ledger read directories of these.
type record struct {
	Machine   machine                   `json:"machine"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Trace     bool                      `json:"trace"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	result
	Digest string `json:"digest"`
}

type machine struct {
	CPU        string         `json:"cpu"`
	Cores      int            `json:"cores"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	OS         string         `json:"os"`
	Arch       string         `json:"arch"`
	Date       string         `json:"date,omitempty"`
}

func thisMachine(date string) machine {
	m := machine{
		CPU: runtime.GOARCH, Cores: runtime.NumCPU(), GOMAXPROCS: map[string]int{},
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Date: date,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	for _, w := range workloads {
		m.GOMAXPROCS[w.name] = w.threads()
	}
	return m
}

// parent runs every workload in its own child process, one at a time.
func parent(seed int64, seconds float64, trace int, recordPath, date string) error {
	rec := record{Machine: thisMachine(date), Seed: seed, Seconds: seconds, Trace: trace == 1,
		Workloads: map[string]workloadRecord{}}
	failed := false
	for _, w := range workloads {
		co, err := runChild(w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		if err != nil {
			return err
		}
		failed = failed || !co.res.Correct
		rec.Workloads[w.name] = workloadRecord{result: co.res, Digest: co.digest}
	}
	if recordPath != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(recordPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(recordPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload reported incorrect results")
	}
	return nil
}

// updateGoldens runs one pass of every workload at each golden seed and
// rewrites golden.json with the digests. For benchmark changes only: a
// change that moves a digest must say why.
func updateGoldens() error {
	g := goldens{}
	for _, w := range workloads {
		g[w.name] = map[string]string{}
		for _, s := range goldenSeeds {
			co, err := runChild(w.name, "-seed", strconv.FormatInt(s, 10), "-seconds", "0", "-update-golden")
			if err != nil {
				return err
			}
			if !co.res.Correct {
				return fmt.Errorf("%s seed %d failed; not pinning its digest", w.name, s)
			}
			g[w.name][strconv.FormatInt(s, 10)] = co.digest
		}
	}
	path := locate("bench/golden.json", "golden.json")
	if err := writeGoldens(path, g); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// locate returns the first candidate path that exists, or the first
// candidate: the benchmark runs from the repository root (bench/run.sh)
// or from bench/ (go run .).
func locate(candidates ...string) string {
	for _, c := range candidates {
		if _, err := os.Stat(c); err == nil {
			return c
		}
	}
	return candidates[0]
}
