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
	fs := flag.NewFlagSet("sanbench", flag.ContinueOnError)
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
		{nil, ""},
		{[]string{"-fig", "3", "-seed", "2", "-full"}, ""},
		{[]string{"-ablations", "-full"}, ""},
		{[]string{"-extensions", "-json", "-seed", "5"}, ""},

		{[]string{"-fig", "3", "-json"}, "-json"},
		{[]string{"-ablations", "-fig", "4", "-json"}, "-fig -json"},
		{[]string{"-ablations", "-extensions"}, "-extensions"},
		{[]string{"-extensions", "-fig", "all"}, "-fig"},
	} {
		if got := strayFor(t, c.args...); got != c.want {
			t.Errorf("sanbench %s: stray %q, want %q", strings.Join(c.args, " "), got, c.want)
		}
	}
}
