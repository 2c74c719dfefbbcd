package cliflag

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ev8pred/internal/report"
	"ev8pred/internal/workload"
)

// TestWorkers pins the -j contract: 0 and positive accepted, every
// negative value rejected with the typed *Error naming the flag.
func TestWorkers(t *testing.T) {
	for _, ok := range []int{0, 1, 8, 1024} {
		if err := Workers("j", ok); err != nil {
			t.Errorf("Workers(%d) rejected: %v", ok, err)
		}
	}
	for _, bad := range []int{-1, -8, -1 << 30} {
		err := Workers("j", bad)
		if err == nil {
			t.Errorf("Workers(%d) accepted", bad)
			continue
		}
		var fe *Error
		if !errors.As(err, &fe) {
			t.Errorf("Workers(%d) error %T is not *cliflag.Error", bad, err)
			continue
		}
		if fe.Flag != "j" {
			t.Errorf("Workers(%d) error names flag %q, want %q", bad, fe.Flag, "j")
		}
		if !strings.Contains(err.Error(), "-j") {
			t.Errorf("Workers(%d) message %q does not name the flag", bad, err)
		}
	}
}

// TestPositive pins the strictly-positive validator.
func TestPositive(t *testing.T) {
	if err := Positive("instructions", 1); err != nil {
		t.Errorf("Positive(1) rejected: %v", err)
	}
	for _, bad := range []int64{0, -1, -1 << 40} {
		err := Positive("instructions", bad)
		var fe *Error
		if err == nil || !errors.As(err, &fe) {
			t.Errorf("Positive(%d) = %v, want typed *Error", bad, err)
		}
	}
}

// TestHostPort is the table of rejected -expvar / -addr forms: each must
// fail with the typed error, never a panic or a silent default.
func TestHostPort(t *testing.T) {
	for _, ok := range []string{"localhost:8080", ":0", ":8080", "127.0.0.1:65535", "[::1]:9090", "localhost:http"} {
		if err := HostPort("expvar", ok); err != nil {
			t.Errorf("HostPort(%q) rejected: %v", ok, err)
		}
	}
	for _, bad := range []struct{ in, why string }{
		{"", "empty"},
		{"localhost", "no port"},
		{"localhost:", "empty port"},
		{"localhost:notaport", "non-numeric port"},
		{"localhost:70000", "port out of range"},
		{"localhost:-1", "negative port"},
		{"host:8080:extra", "too many colons"},
		{"[::1]", "bracketed host without port"},
	} {
		err := HostPort("expvar", bad.in)
		if err == nil {
			t.Errorf("HostPort(%q) accepted (%s)", bad.in, bad.why)
			continue
		}
		var fe *Error
		if !errors.As(err, &fe) {
			t.Errorf("HostPort(%q) error %T is not *cliflag.Error", bad.in, err)
			continue
		}
		if fe.Flag != "expvar" || fe.Value != bad.in {
			t.Errorf("HostPort(%q) error carries flag=%q value=%q", bad.in, fe.Flag, fe.Value)
		}
	}
}

// TestBenchmarks pins the -benchmarks spellings every tool and a served
// spec accept: "all", or a list of names with spaces allowed.
func TestBenchmarks(t *testing.T) {
	all, err := Benchmarks("all")
	if err != nil || len(all) != len(workload.Benchmarks()) {
		t.Fatalf(`Benchmarks("all") = %d profiles, %v; want the full suite`, len(all), err)
	}
	two, err := Benchmarks("li, gcc")
	if err != nil || len(two) != 2 || two[0].Name != "li" || two[1].Name != "gcc" {
		t.Errorf(`Benchmarks("li, gcc") = %v, %v`, two, err)
	}
	for _, bad := range []string{"", "nonesuch", "all,gcc", "gcc,"} {
		if _, err := Benchmarks(bad); err == nil {
			t.Errorf("Benchmarks(%q) accepted", bad)
		}
	}
}

// TestCommandParse: a bad flag is one line naming -h, -h prints the
// usage to out and stops the tool, and a value out of range is the
// typed *Error naming its flag.
func TestCommandParse(t *testing.T) {
	newCmd := func(out io.Writer) *Command {
		cmd := New("tool", out, io.Discard)
		cmd.PositiveInt64("instructions", 1000, "budget")
		cmd.PositiveInt("threads", 1, "threads")
		cmd.Workers("workers")
		return cmd
	}
	if ok, err := newCmd(io.Discard).Parse(nil); !ok || err != nil {
		t.Fatalf("defaults: ok=%v err=%v", ok, err)
	}
	var out strings.Builder
	ok, err := newCmd(&out).Parse([]string{"-no-such-flag"})
	if ok || err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), "-h") || out.Len() != 0 {
		t.Errorf("bad flag: ok=%v err=%q out=%q", ok, err, out.String())
	}
	if ok, err := newCmd(&out).Parse([]string{"-h"}); ok || err != nil || !strings.Contains(out.String(), "-instructions") {
		t.Errorf("-h: ok=%v err=%v usage=%q", ok, err, out.String())
	}
	for _, tc := range []struct{ flag, value string }{
		{"instructions", "0"}, {"instructions", "-5"}, {"threads", "0"}, {"j", "-1"},
	} {
		ok, err := newCmd(io.Discard).Parse([]string{"-" + tc.flag, tc.value})
		var fe *Error
		if ok || !errors.As(err, &fe) || fe.Flag != tc.flag || fe.Value != tc.value {
			t.Errorf("-%s %s: ok=%v err=%v, want *Error for that flag", tc.flag, tc.value, ok, err)
		}
	}
}

// TestCacheSummary: -cache opens the store, Log is nil without -v, and
// under -v Close prints the summary under the tool's name.
func TestCacheSummary(t *testing.T) {
	dir := t.TempDir()
	for _, verbose := range []bool{false, true} {
		var errw strings.Builder
		cmd := New("tool", io.Discard, &errw)
		cmd.Cache("verbose")
		args := []string{"-cache", dir}
		if verbose {
			args = append(args, "-v")
		}
		if ok, err := cmd.Parse(args); !ok {
			t.Fatal(err)
		}
		if cmd.Store() == nil || cmd.Store().Dir() != dir {
			t.Fatalf("store not opened at %s", dir)
		}
		if (cmd.Log() != nil) != verbose {
			t.Errorf("-v=%v: Log() nil = %v", verbose, cmd.Log() == nil)
		}
		cmd.Close()
		if got := strings.HasPrefix(errw.String(), "tool: cache: 0 hits"); got != verbose {
			t.Errorf("-v=%v: stderr %q", verbose, errw.String())
		}
	}
}

// TestEmit: "-json -" replaces the table with the JSON, a path gets the
// JSON beside the printed table, and no -json prints the table alone.
func TestEmit(t *testing.T) {
	tbl := report.New("title", "col")
	tbl.AddRowf("row")
	runs := []report.Run{{Predictor: "p", Workload: "w"}}
	var want strings.Builder
	if err := report.WriteJSON(&want, runs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	for _, tc := range []struct {
		args           []string
		table, jsonOut bool
	}{
		{nil, true, false},
		{[]string{"-json", "-"}, false, true},
		{[]string{"-json", path}, true, false},
	} {
		var out strings.Builder
		cmd := New("tool", &out, io.Discard)
		cmd.JSON()
		if ok, err := cmd.Parse(tc.args); !ok {
			t.Fatal(err)
		}
		if err := cmd.Emit(tbl, runs); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out.String(), "title"); got != tc.table {
			t.Errorf("%v: table printed = %v", tc.args, got)
		}
		if got := out.String() == want.String(); got != tc.jsonOut {
			t.Errorf("%v: JSON on stdout = %v:\n%s", tc.args, got, out.String())
		}
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != want.String() {
		t.Errorf("-json %s wrote %q, %v", path, data, err)
	}
}
