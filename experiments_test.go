package sanft

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsMatchGoldens keeps EXPERIMENTS.md in step with the
// goldens CI diffs: every measured number in its Figure 3–9, Table 3 and
// ablation tables must equal, at the precision the document prints, the
// value its golden under testdata/ holds for that table cell. Cells are
// looked up by their row and column keys (stage, size, timer, queue,
// error rate, hops), so a number that appears elsewhere in the golden
// does not pass. The test then plants one-digit edits and checks that
// each one is caught.
func TestExperimentsMatchGoldens(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	g := loadGoldens(t)
	if errs := g.check(string(doc)); len(errs) > 0 {
		t.Fatalf("EXPERIMENTS.md disagrees with testdata/:\n%s", strings.Join(errs, "\n"))
	}
	for _, plant := range []struct{ section, from, to string }{
		{"## Figure 6", "| 100 µs | 80.2 |", "| 100 µs | 80.3 |"}, // 80.3 is elsewhere in Figure 6's golden
		{"## Figure 8", "| 128 | 68.2 |", "| 128 | 68.3 |"},
		{"## Figure 9 —", "| 43.02 ms | 2 |", "| 43.02 ms | 3 |"},
		{"## Table 3", "124.745 ms", "124.746 ms"},
		{"## Ablations", "| 39.3 | — | 1707 |", "| 39.3 | — | 1708 |"},
	} {
		a := strings.Index(string(doc), plant.section)
		b := strings.Index(string(doc[max(a, 0):]), plant.from)
		if a < 0 || b < 0 {
			t.Fatalf("plant %q not found under %q", plant.from, plant.section)
		}
		b += a
		bad := string(doc[:b]) + plant.to + string(doc[b+len(plant.from):])
		if len(g.check(bad)) == 0 {
			t.Errorf("planted edit %q → %q under %q went unnoticed", plant.from, plant.to, plant.section)
		}
	}
}

// goldens holds the testdata files the document's tables come from.
type goldens struct {
	figs, ablations, table3 string
	fig9                    []map[string]string
}

func loadGoldens(t *testing.T) *goldens {
	read := func(name string) string {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	g := &goldens{figs: read("sanbench-figs.txt"), ablations: read("sanbench-ablations.txt"),
		table3: read("sanmap-table3.txt")}
	var fig9 struct{ Rows []map[string]string }
	if err := json.Unmarshal([]byte(read("sanapp-fig9.json")), &fig9); err != nil {
		t.Fatal(err)
	}
	g.fig9 = fig9.Rows
	return g
}

var (
	rates  = map[string]string{"0": "0", "10⁻²": "0.01", "10⁻³": "0.001", "10⁻⁴": "0.0001"}
	sizes  = map[string]string{"4": "4", "1 K": "1024", "4 K": "4096", "64 K": "65536", "1 M": "1048576"}
	timers = map[string]string{"no-FT": "-", "10 µs": "10us", "100 µs": "100us", "1 ms": "1ms", "10 ms": "10ms", "1 s": "1s"}
)

// check returns one line per measured table cell of doc that disagrees
// with its golden, and per table that is missing or not checked.
func (g *goldens) check(doc string) []string {
	var errs []string
	fail := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	// want compares the numbers of cells with the golden fields, in order.
	want := func(where string, cells []string, fields ...string) {
		var got []string
		for _, c := range cells {
			got = append(got, docNumbers(c)...)
		}
		if len(got) != len(fields) {
			fail("%s: %d numbers %v, golden has %d %v", where, len(got), got, len(fields), fields)
			return
		}
		for i := range got {
			if !sameAtPrecision(got[i], fields[i]) {
				fail("%s: %s, golden %s", where, got[i], fields[i])
			}
		}
	}
	figs := func(title string, keys ...any) []string { return goldenRow(g.figs, title, keys...) }
	for _, sec := range []struct {
		heading string
		check   func(tab int, head []string, row []string) // row[0] is the row key
	}{
		{"## Figure 3", func(_ int, _, r []string) {
			stage := r[0]
			if stage == "total" {
				stage = "TOTAL"
			}
			f := figs("Figure 3:", 0, stage)
			want("Fig. 3 "+r[0], r[2:3], field(f, 1), field(f, 2))
		}},
		{"## Figure 4", func(_ int, _, r []string) {
			f := figs("Figure 4 (right)", 0, sizes[r[0]])
			want("Fig. 4 "+r[0], r[1:5], field(f, 1), field(f, 2), field(f, 3), field(f, 4))
		}},
		{"## Figure 5", func(_ int, _, r []string) {
			f := figs("Figure 5:", 0, timers[r[0]], -3, "65536")
			want("Fig. 5 "+r[0], r[2:4], field(f, -2), field(f, -1))
		}},
		{"## Figure 6", func(_ int, h, r []string) {
			for c := 1; c < len(h); c++ {
				f := figs("Figure 6:", 0, timers[r[0]], -4, rates[h[c]], -3, "65536")
				want("Fig. 6 "+r[0]+" at "+h[c], r[c:c+1], field(f, -1))
			}
		}},
		{"## Figure 7", func(_ int, _, r []string) {
			f := figs("Figure 7:", 0, "1ms", 1, r[0], -3, "65536")
			want("Fig. 7 q="+r[0], r[2:3], field(f, -1))
		}},
		{"## Figure 8", func(_ int, h, r []string) {
			for c := 1; c < len(h); c++ {
				f := figs("Figure 8:", 0, "1ms", 1, r[0], -4, rates[h[c]], -3, "65536")
				want("Fig. 8 q="+r[0]+" at "+h[c], r[c:c+1], field(f, -1))
			}
		}},
		{"## Figure 9 —", func(_ int, _, r []string) {
			for _, row := range g.fig9 {
				if row["app"] == "radix" && row["config"] == "r1ms-q32" && row["err-rate"] == rates[r[0]] {
					want("Fig. 9 radix at "+r[0], r[1:3], row["elapsed"], row["drops"])
					return
				}
			}
			fail("Fig. 9: no radix r1ms-q32 row at %s", r[0])
		}},
		{"## Table 3", func(_ int, _, r []string) {
			f := goldenRow(g.table3, "Table 3:", 0, r[0])
			want("Table 3 hops="+r[0], r[3:5], field(f, 1), field(f, 2), field(f, 3), field(f, 4))
		}},
		{"## Ablations", func(tab int, _, r []string) {
			if tab == 0 {
				var line string
				for _, l := range strings.Split(g.ablations, "\n") {
					if strings.HasPrefix(strings.TrimSpace(l), r[0]+":") {
						line = l
					}
				}
				want("ablation "+r[0], r[1:], numberRE.FindAllString(line, -1)...)
				return
			}
			f := goldenRow(g.ablations, "Ablation: sender-based", 0, r[0], 1, rates[r[1]])
			want("ablation feedback q="+r[0]+" at "+r[1], r[2:], field(f, 2), field(f, 3),
				field(f, 4), field(f, 5), field(f, 6))
		}},
	} {
		tables := mdTables(doc, sec.heading)
		if len(tables) == 0 {
			fail("%s: no table", sec.heading)
		}
		for i, tab := range tables {
			for _, row := range tab[1:] {
				sec.check(i, tab[0], row)
			}
		}
	}
	return errs
}

// mdTables returns the markdown tables of the section whose heading line
// starts with heading, each as its header followed by its rows of trimmed
// cells (the separator line dropped).
func mdTables(doc, heading string) [][][]string {
	var out [][][]string
	in, inTable := false, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, heading)
		}
		l := strings.TrimSpace(line)
		if !in || !strings.HasPrefix(l, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(l, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.HasPrefix(cells[0], "---") {
			continue
		}
		if !inTable {
			out = append(out, nil)
			inTable = true
		}
		out[len(out)-1] = append(out[len(out)-1], cells)
	}
	return out
}

// goldenRow returns the whitespace-split fields of the one data line of
// the text block titled title whose fields match keys, given as (field
// index, value) pairs; a negative index counts from the line's end.
func goldenRow(text, title string, keys ...any) []string {
	i := strings.Index(text, title)
	if i < 0 {
		return nil
	}
	var match []string
	n := 0
	for _, line := range strings.Split(text[i:], "\n")[1:] {
		if strings.TrimSpace(line) == "" {
			break
		}
		f := strings.Fields(line)
		ok := true
		for k := 0; k < len(keys); k += 2 {
			if field(f, keys[k].(int)) != keys[k+1].(string) {
				ok = false
			}
		}
		if ok {
			match = f
			n++
		}
	}
	if n != 1 {
		return nil // no unique line: every comparison with it fails
	}
	return match
}

// field returns f[i], counting from the end when i is negative, or "" when
// f has no such field.
func field(f []string, i int) string {
	if i < 0 {
		i += len(f)
	}
	if i < 0 || i >= len(f) {
		return ""
	}
	return f[i]
}

var (
	numberRE = regexp.MustCompile(`\d+(\.\d+)?(\s*%)?`)
	parenRE  = regexp.MustCompile(`\([^)]*\)`)
)

// docNumbers returns the numbers a cell states, leaving out what is
// derived from them: percentages and anything in parentheses.
func docNumbers(cell string) []string {
	var out []string
	for _, m := range numberRE.FindAllString(parenRE.ReplaceAllString(cell, ""), -1) {
		if !strings.HasSuffix(m, "%") {
			out = append(out, m)
		}
	}
	return out
}

// sameAtPrecision reports whether the golden value (its unit stripped)
// printed with the decimals of doc reads doc.
func sameAtPrecision(doc, golden string) bool {
	num := numberRE.FindString(golden)
	if num == "" || !strings.HasPrefix(golden, num) {
		return false
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return false
	}
	dec := 0
	if i := strings.IndexByte(doc, '.'); i >= 0 {
		dec = len(doc) - i - 1
	}
	return strconv.FormatFloat(v, 'f', dec, 64) == doc
}
