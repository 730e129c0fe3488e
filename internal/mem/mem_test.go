package mem

import (
	"testing"

	"sharing/internal/noc"
)

func TestFixedLatency(t *testing.T) {
	m := New(Config{Latency: 100}, noc.MinWindow)
	if got := m.Access(10, false); got != 110 {
		t.Fatalf("completion = %d, want 110", got)
	}
	if m.Reads != 1 || m.Writes != 0 {
		t.Fatalf("counters %d/%d", m.Reads, m.Writes)
	}
	m.Access(10, true)
	if m.Writes != 1 {
		t.Fatal("write not counted")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	m := New(Config{Latency: 100, RequestsPerCycle: 2}, noc.MinWindow)
	a := m.Access(5, false)
	b := m.Access(5, false)
	c := m.Access(5, false)
	if a != 105 || b != 105 || c != 106 {
		t.Fatalf("completions %d,%d,%d; want 105,105,106", a, b, c)
	}
}

func TestOutOfOrderRequests(t *testing.T) {
	// A request scheduled for the future must not delay a present one.
	m := New(Config{Latency: 100, RequestsPerCycle: 1}, noc.MinWindow)
	if got := m.Access(1000, true); got != 1100 {
		t.Fatalf("future write at %d", got)
	}
	if got := m.Access(3, false); got != 103 {
		t.Fatalf("present read delayed to %d", got)
	}
	if m.Aliased() != 0 {
		t.Fatalf("Aliased() = %d with both requests inside the window", m.Aliased())
	}
	// A read three windows before the future write probes the write's slot
	// while its count is live: the channel reports the alias.
	m.Access(1000-3*noc.MinWindow, false)
	if m.Aliased() != 1 {
		t.Fatalf("Aliased() = %d after a read three windows behind the write, want 1", m.Aliased())
	}
	if New(Config{Latency: 100}, noc.MinWindow).Aliased() != 0 {
		t.Fatal("an unlimited channel reports aliases")
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Latency != 100 {
		t.Fatalf("default memory delay %d, want 100 (Table 2)", c.Latency)
	}
}
