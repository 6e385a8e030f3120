package main

import (
	"flag"
	"strings"
	"testing"
)

// commandFlags visits the flags main defines, skipping the test
// binary's own -test.* flags.
func commandFlags(fn func(*flag.Flag)) {
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fn(f)
		}
	})
}

// strayFor resets the command's flags to their defaults, parses args
// into a fresh set sharing their values, and returns what main would
// reject.
func strayFor(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("sanchaos", flag.ContinueOnError)
	commandFlags(func(f *flag.Flag) {
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatal(err)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return strings.Join(strayFlags(fs, mode()), " ")
}

// TestModeFlagsCoverCommand: the table names only real flags, and every
// flag is read by some mode.
func TestModeFlagsCoverCommand(t *testing.T) {
	read := map[string]bool{}
	for m, names := range modeFlags {
		for _, n := range names {
			if flag.Lookup(n) == nil {
				t.Errorf("mode %s lists undefined flag -%s", m, n)
			}
			read[n] = true
		}
	}
	commandFlags(func(f *flag.Flag) {
		if !read[f.Name] {
			t.Errorf("no mode reads -%s", f.Name)
		}
	})
}

func TestStrayFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		// Every invocation the CI workflows make stays valid.
		{nil, ""},
		{[]string{"-campaign", "link-flap", "-reps", "4", "-workers", "4"}, ""},
		{[]string{"-liveness", "-campaign", "link-kill", "-reps", "2", "-workers", "4"}, ""},
		{[]string{"-campaign", "link-flap", "-reps", "4", "-workers", "2", "-http", "127.0.0.1:9190", "-http-hold", "10s"}, ""},
		{[]string{"-campaign", "link-flap", "-reps", "8", "-workers", "2"}, ""},
		{[]string{"-topo", "fattree:16", "-scenario", "flapstorm", "-reps", "3", "-workers", "4", "-json"}, ""},
		{[]string{"-topo", "dragonfly:8,4,4", "-scenario", "gray", "-workers", "4"}, ""},
		{[]string{"-scenario", "stalemap", "-reps", "2", "-events"}, ""},
		{[]string{"-list"}, ""},

		// Flags the selected mode never reads.
		{[]string{"-topo", "fattree:4", "-scenario", "flapstorm", "-http", "127.0.0.1:0"}, "-http"},
		{[]string{"-scenario", "stalemap", "-liveness"}, "-liveness"},
		{[]string{"-scenario", "gray", "-campaign", "link-flap", "-http-hold", "1s"}, "-campaign -http-hold"},
		{[]string{"-scenario", "flapstorm", "-events"}, "-events"},
		{[]string{"-scenario", "stalemap", "-workers", "4", "-topo", "fattree:4"}, "-topo -workers"},
		{[]string{"-topo", "fattree:4", "-flows", "8"}, "-flows -topo"},
		{[]string{"-http-hold", "1s"}, "-http-hold"},
		{[]string{"-list", "-seed", "3"}, "-seed"},
	} {
		if got := strayFor(t, c.args...); got != c.want {
			t.Errorf("sanchaos %s: stray %q, want %q", strings.Join(c.args, " "), got, c.want)
		}
	}
}
