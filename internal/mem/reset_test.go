package mem

import "testing"

// TestMemoryReset pins the pooled-device contract at the memory level: a
// Reset memory is indistinguishable from a freshly constructed one (size
// and contents), while keeping its written pages for reuse.
func TestMemoryReset(t *testing.T) {
	m := NewMemory(128)
	m.Grow(4096)
	for a := uint32(0); a < 4096; a += 4 {
		m.Write32(a, 0xdeadbeef)
	}
	m.Reset()
	if m.Size() != 128 {
		t.Errorf("size after reset = %d, want 128", m.Size())
	}
	if v, ok := m.Read32(0); !ok || v != 0 {
		t.Errorf("contents survived reset: %#x", v)
	}
	// Growing back must expose zeroed memory, like a fresh Memory would.
	m.Grow(4096)
	for a := uint32(0); a < 4096; a += 4 {
		if v, _ := m.Read32(a); v != 0 {
			t.Fatalf("stale byte at %#x after reset+grow: %#x", a, v)
		}
	}
}

// TestHierarchyReset pins that Reset rewinds caches (contents, LRU stamps,
// statistics) and DRAM channels (bandwidth clock, counters) to the
// constructed state, so replayed accesses time identically.
func TestHierarchyReset(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.DRAM.Channels = 2
	h, err := NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	trace := func(h *Hierarchy) []AccessResult {
		var out []AccessResult
		for i := uint32(0); i < 64; i++ {
			out = append(out, h.Access(int(i%2), 0x1000+i*64, i%3 == 0, uint64(i)))
		}
		return out
	}

	// Dirty the hierarchy with a different access pattern, then reset.
	for i := uint32(0); i < 200; i++ {
		h.Access(0, 0x9000+i*128, true, uint64(i))
	}
	h.Reset()

	if h.TotalL1Stats() != (CacheStats{}) || h.L2Stats() != (CacheStats{}) {
		t.Errorf("stats survived reset: L1 %+v L2 %+v", h.TotalL1Stats(), h.L2Stats())
	}
	if h.DRAM() != (DRAMStats{}) {
		t.Errorf("DRAM stats survived reset: %+v", h.DRAM())
	}

	got, want := trace(h), trace(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d differs after reset: %+v vs fresh %+v", i, got[i], want[i])
		}
	}
	if h.DRAM() != fresh.DRAM() {
		t.Errorf("DRAM stats diverge after identical traces: %+v vs %+v", h.DRAM(), fresh.DRAM())
	}
}
