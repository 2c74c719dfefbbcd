package cliflag

import (
	"errors"
	"strings"
	"testing"
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
