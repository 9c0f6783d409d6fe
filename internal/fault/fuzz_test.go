package fault

import (
	"strings"
	"testing"
)

// FuzzFaultsExec feeds the /procx/faults line protocol to a fresh registry
// with a few sites. Exec and ExecAll never panic; a batch that ExecAll
// refuses arms nothing; and every armed site's plan field in EncodeText
// parses back through ParseSpec to the plan it shows.
func FuzzFaultsExec(f *testing.F) {
	f.Add("mem.page nth=3")
	f.Add("a every=2,count=4 pid=7\n# comment\n\nb.c seed=9 prob=2000")
	f.Add("a nth=1\nreset\nclear b.c\nclear")
	f.Add("a always\nbogus nth=1")
	f.Fuzz(func(t *testing.T, text string) {
		newReg := func() *Registry {
			r := NewRegistry()
			for _, name := range []string{"a", "b.c", "mem.page"} {
				r.Register(name)
			}
			return r
		}
		one := newReg()
		one.Exec(text)
		checkPlans(t, one)
		all := newReg()
		if err := all.ExecAll(text); err != nil && all.AnyArmed() {
			t.Fatalf("ExecAll(%q) failed with %v but armed a site", text, err)
		}
		checkPlans(t, all)
	})
}

// checkPlans checks that each armed site's plan field in r's listing parses
// back to the site's plan.
func checkPlans(t *testing.T, r *Registry) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(string(r.EncodeText()), "\n"), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[2], "plan=") {
			t.Fatalf("malformed listing line %q", line)
		}
		want, armed := r.Lookup(fields[1]).Plan()
		field := strings.TrimPrefix(fields[2], "plan=")
		if !armed {
			if field != "-" {
				t.Fatalf("disarmed site %s lists plan %q", fields[1], field)
			}
			continue
		}
		got, err := ParseSpec(field)
		if err != nil || got != want {
			t.Fatalf("site %s plan field %q parses to %+v, %v; want %+v", fields[1], field, got, err, want)
		}
	}
}
