package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// flatMemory is the reference model for Memory: one plain byte slice with
// the same bounds checks and error messages, grown by copying.
type flatMemory struct {
	data []byte
	init uint32
}

func (f *flatMemory) size() uint32 { return uint32(len(f.data)) }

func (f *flatMemory) inBounds(addr, n uint32) bool {
	return n <= f.size() && addr <= f.size()-n
}

func (f *flatMemory) grow(size uint32) {
	if size > f.size() {
		f.data = append(f.data, make([]byte, size-f.size())...)
	}
}

func (f *flatMemory) reset() { f.data = make([]byte, f.init) }

func (f *flatMemory) read(addr, n uint32) (uint32, bool) {
	if !f.inBounds(addr, n) {
		return 0, false
	}
	var b [4]byte
	copy(b[:], f.data[addr:addr+n])
	return binary.LittleEndian.Uint32(b[:]), true
}

func (f *flatMemory) write(addr, n, v uint32) bool {
	if !f.inBounds(addr, n) {
		return false
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	copy(f.data[addr:addr+n], b[:n])
	return true
}

func (f *flatMemory) writeBytes(addr uint32, b []byte) error {
	if !f.inBounds(addr, uint32(len(b))) {
		return fmt.Errorf("mem: write of %d bytes at %#x out of bounds (size %#x)", len(b), addr, f.size())
	}
	copy(f.data[addr:], b)
	return nil
}

func (f *flatMemory) readBytesInto(dst []byte, addr uint32) error {
	if !f.inBounds(addr, uint32(len(dst))) {
		return fmt.Errorf("mem: read of %d bytes at %#x out of bounds (size %#x)", len(dst), addr, f.size())
	}
	copy(dst, f.data[addr:])
	return nil
}

// pagedRead and pagedWrite dispatch a width-n access to Memory's typed
// accessors, widening the value like flatMemory does.
func pagedRead(m *Memory, addr, n uint32) (uint32, bool) {
	switch n {
	case 1:
		v, ok := m.Read8(addr)
		return uint32(v), ok
	case 2:
		v, ok := m.Read16(addr)
		return uint32(v), ok
	}
	return m.Read32(addr)
}

func pagedWrite(m *Memory, addr, n, v uint32) bool {
	switch n {
	case 1:
		return m.Write8(addr, uint8(v))
	case 2:
		return m.Write16(addr, uint16(v))
	}
	return m.Write32(addr, v)
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestMemoryMatchesFlatModel runs seeded random operation sequences on the
// paged Memory and on the flat reference model and requires identical
// results: values, ok flags, error strings, sizes and, after every
// sequence, the full contents.
func TestMemoryMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		init := uint32(r.Intn(3*pageSize) + 1)
		m := NewMemory(init)
		f := &flatMemory{data: make([]byte, init), init: init}

		// addrNear picks an address close to a page boundary or to the end
		// of memory, where the paged layout differs from the flat one.
		addrNear := func(n uint32) uint32 {
			size := f.size()
			switch r.Intn(4) {
			case 0: // last in-bounds start, or one past it
				return size - n + uint32(r.Intn(2))
			case 1: // straddling or abutting a page boundary
				pg := uint32(r.Intn(numPages(size) + 1))
				return pg*pageSize - uint32(r.Intn(int(2*n+1))) + n
			case 2: // size-aligned, anywhere
				return uint32(r.Intn(int(size)+8)) &^ (n - 1)
			}
			return uint32(r.Intn(int(size) + 8))
		}

		for op := 0; op < 4000; op++ {
			where := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := r.Intn(100); {
			case k < 3: // grow to a size that is rarely a page multiple
				size := f.size() + uint32(r.Intn(3*pageSize))
				if r.Intn(4) == 0 { // a no-op shrink attempt
					size = uint32(r.Intn(int(f.size()) + 1))
				}
				m.Grow(size)
				f.grow(size)
			case k < 5: // reset, then grow past the construction size
				m.Reset()
				f.reset()
				size := init + uint32(r.Intn(4*pageSize))
				m.Grow(size)
				f.grow(size)
			case k < 40:
				n := uint32(1) << r.Intn(3)
				addr, v := addrNear(n), r.Uint32()
				if got, want := pagedWrite(m, addr, n, v), f.write(addr, n, v); got != want {
					t.Fatalf("%s: write%d(%#x) ok = %v, flat %v", where, 8*n, addr, got, want)
				}
			case k < 75:
				n := uint32(1) << r.Intn(3)
				addr := addrNear(n)
				gv, gok := pagedRead(m, addr, n)
				wv, wok := f.read(addr, n)
				if gv != wv || gok != wok {
					t.Fatalf("%s: read%d(%#x) = %#x, %v; flat %#x, %v", where, 8*n, addr, gv, gok, wv, wok)
				}
			case k < 85: // spans 1-3 page boundaries, or runs out of bounds
				n := uint32(r.Intn(3*pageSize) + 1)
				addr := addrNear(1)
				b := make([]byte, n)
				r.Read(b)
				if got, want := errString(m.WriteBytes(addr, b)), errString(f.writeBytes(addr, b)); got != want {
					t.Fatalf("%s: WriteBytes(%#x, %d) = %s; flat %s", where, addr, n, got, want)
				}
			default:
				n := uint32(r.Intn(3*pageSize) + 1)
				addr := addrNear(1)
				got, want := make([]byte, n), make([]byte, n)
				r.Read(got) // stale bytes that every read must overwrite
				copy(want, got)
				gerr, werr := errString(m.ReadBytesInto(got, addr)), errString(f.readBytesInto(want, addr))
				if gerr != werr {
					t.Fatalf("%s: ReadBytesInto(%#x, %d) = %s; flat %s", where, addr, n, gerr, werr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadBytesInto(%#x, %d) contents differ from flat", where, addr, n)
				}
			}
			if m.Size() != f.size() {
				t.Fatalf("%s: size = %#x, flat %#x", where, m.Size(), f.size())
			}
		}
		all := make([]byte, m.Size())
		if err := m.ReadBytesInto(all, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all, f.data) {
			t.Fatalf("seed %d: final contents differ from flat", seed)
		}
	}
}

// TestMemoryReuseAllocFree pins allocation-free device reuse: pages dirtied
// before a Reset back the same writes after it, and constructing the 1 MiB
// device memory allocates the table but no page.
func TestMemoryReuseAllocFree(t *testing.T) {
	m := NewMemory(1 << 20)
	cycle := func() {
		m.Grow(1<<20 + 5*pageSize + 12)
		for a := uint32(0x10000); a < 0x10000+16; a += 4 {
			m.Write32(a, a) // argument slots below the heap
		}
		for a := uint32(1 << 20); a < m.Size(); a += pageSize / 2 {
			m.Write8(a, 1)
		}
		m.Write16(m.Size()-2, 7)
		m.Reset()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("write-Reset-write allocates %v times, want 0", allocs)
	}

	var fresh *Memory
	if allocs := testing.AllocsPerRun(20, func() { fresh = NewMemory(1 << 20) }); allocs > 2 {
		t.Errorf("NewMemory(1 MiB) allocates %v times, want at most 2", allocs)
	}
	if len(fresh.dirty) != 0 {
		t.Errorf("NewMemory allocated %d pages", len(fresh.dirty))
	}
	for i, p := range fresh.pages {
		if p != nil {
			t.Fatalf("NewMemory backed page %d", i)
		}
	}
}

// TestMemoryMaterialize pins that Materialize backs every page, preserves
// contents, and that Reset then releases all of them.
func TestMemoryMaterialize(t *testing.T) {
	m := NewMemory(3*pageSize + 5)
	m.Write32(pageSize, 0xfeedf00d)
	m.Materialize()
	for i, p := range m.pages {
		if p == nil {
			t.Fatalf("page %d not backed after Materialize", i)
		}
	}
	if len(m.dirty) != len(m.pages) {
		t.Errorf("dirty list has %d pages, want %d", len(m.dirty), len(m.pages))
	}
	if v, _ := m.Read32(pageSize); v != 0xfeedf00d {
		t.Errorf("Materialize lost contents: %#x", v)
	}
	m.Reset()
	if len(m.dirty) != 0 || len(m.free) != 4 {
		t.Errorf("after Reset: %d dirty, %d free; want 0, 4", len(m.dirty), len(m.free))
	}
	if v, _ := m.Read32(pageSize); v != 0 {
		t.Errorf("contents survived Reset: %#x", v)
	}
}

// TestMemoryMaterializeAllocs pins that Materialize backs a fresh memory
// from one slab, as the flat image was one allocation, and that on a reused
// memory it takes every page from the free list without allocating.
func TestMemoryMaterializeAllocs(t *testing.T) {
	var m *Memory
	fresh := func(size uint32) float64 {
		return testing.AllocsPerRun(10, func() {
			m = NewMemory(1 << 20)
			m.Grow(size)
			m.Write32(0x10000, 1) // one page already backed
			m.Materialize()
		})
	}
	// The count is a constant (table, written page, dirty list, slab), so
	// backing four times the pages costs no more allocations.
	large, small := fresh(4<<20), fresh(1<<20+3*pageSize+12)
	if small != large || small > 16 {
		t.Errorf("fresh Materialize allocates %v times for %d pages and %v for %d, want one constant",
			small, numPages(1<<20+3*pageSize+12), large, numPages(4<<20))
	}
	m.Reset()
	reuse := testing.AllocsPerRun(10, func() {
		m.Grow(1<<20 + 3*pageSize + 12)
		m.Materialize()
		m.Reset()
	})
	if reuse != 0 {
		t.Errorf("Materialize after Reset allocates %v times, want 0", reuse)
	}
	if len(m.free) != numPages(1<<20+3*pageSize+12) {
		t.Errorf("free list has %d pages, want %d", len(m.free), numPages(1<<20+3*pageSize+12))
	}
}
