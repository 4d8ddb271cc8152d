package ocl

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// vecaddSrc is the float vector-add kernel used throughout these tests.
// Args: 0=A, 1=B, 2=C (device addresses).
var vecaddSrc = KernelSource{
	Name: "vecadd",
	Body: `
	lw   t3, 0(a1)
	lw   t4, 4(a1)
	lw   t5, 8(a1)
	slli t6, a0, 2
	add  t3, t3, t6
	add  t4, t4, t6
	add  t5, t5, t6
	flw  f0, 0(t3)
	flw  f1, 0(t4)
	fadd.s f2, f0, f1
	fsw  f2, 0(t5)
`,
}

// runVecadd executes vecadd(gws) with the given lws on cfg and verifies the
// result, returning the launch report.
func runVecadd(t *testing.T, cfg sim.Config, gws, lws int) *LaunchResult {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runVecaddOn(t, d, gws, lws)
}

// runVecaddOn is runVecadd on an existing device, over fresh buffers.
func runVecaddOn(t *testing.T, d *Device, gws, lws int) *LaunchResult {
	t.Helper()
	cfg := d.Sim().Config()
	a := make([]float32, gws)
	b := make([]float32, gws)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	bufA, err := d.AllocFloat32(gws)
	if err != nil {
		t.Fatal(err)
	}
	bufB, _ := d.AllocFloat32(gws)
	bufC, _ := d.AllocFloat32(gws)
	if err := d.WriteFloat32(bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFloat32(bufB, b); err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(vecaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(bufA, bufB, bufC); err != nil {
		t.Fatal(err)
	}
	res, err := d.EnqueueNDRange(k, gws, lws)
	if err != nil {
		t.Fatalf("launch gws=%d lws=%d on %s: %v", gws, lws, cfg.Name(), err)
	}
	got, err := d.ReadFloat32(bufC, gws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != a[i]+b[i] {
			t.Fatalf("gws=%d lws=%d %s: c[%d] = %v, want %v", gws, lws, cfg.Name(), i, got[i], a[i]+b[i])
		}
	}
	return res
}

func TestVecaddAcrossLWSAndConfigs(t *testing.T) {
	cfgs := []sim.Config{
		sim.DefaultConfig(1, 1, 1),
		sim.DefaultConfig(1, 2, 4),
		sim.DefaultConfig(2, 2, 2),
		sim.DefaultConfig(4, 4, 8),
	}
	for _, cfg := range cfgs {
		for _, lws := range []int{1, 3, 16, 32, 64, 200} {
			runVecadd(t, cfg, 128, lws)
		}
		// Auto.
		runVecadd(t, cfg, 128, 0)
		// Non-dividing gws.
		runVecadd(t, cfg, 100, 0)
		runVecadd(t, cfg, 7, 3)
		runVecadd(t, cfg, 1, 1)
	}
}

func TestPaperFigure1Ordering(t *testing.T) {
	// gws=128 on 1c2w4t: the paper's Figure 1 setup. lws=16 (ours) must
	// beat the naive lws=1 and the over-sized lws=32 and lws=64.
	cfg := sim.DefaultConfig(1, 2, 4)
	cycles := map[int]uint64{}
	for _, lws := range []int{1, 16, 32, 64} {
		res := runVecadd(t, cfg, 128, lws)
		cycles[lws] = res.Cycles
	}
	if cycles[16] >= cycles[1] {
		t.Errorf("lws=16 (%d cycles) not faster than lws=1 (%d)", cycles[16], cycles[1])
	}
	if cycles[16] >= cycles[32] {
		t.Errorf("lws=16 (%d cycles) not faster than lws=32 (%d)", cycles[16], cycles[32])
	}
	if cycles[16] >= cycles[64] {
		t.Errorf("lws=16 (%d cycles) not faster than lws=64 (%d)", cycles[16], cycles[64])
	}
	// And the over regime degrades monotonically as slots empty.
	if cycles[64] <= cycles[32] {
		t.Errorf("lws=64 (%d) should be slower than lws=32 (%d)", cycles[64], cycles[32])
	}
}

func TestAutoMatchesExplicitOptimal(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	auto := runVecadd(t, cfg, 128, 0)
	explicit := runVecadd(t, cfg, 128, 16)
	if auto.LWS != 16 {
		t.Errorf("auto picked lws=%d, want 16", auto.LWS)
	}
	if auto.Cycles != explicit.Cycles {
		t.Errorf("auto %d cycles != explicit optimal %d", auto.Cycles, explicit.Cycles)
	}
}

func TestLaunchReportFields(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	res := runVecadd(t, cfg, 128, 1)
	if res.Regime != core.RegimeUnder || res.Batches != 16 || res.Tasks != 128 {
		t.Errorf("lws=1 report = %+v", res)
	}
	if res.WarpsActivated != 2 {
		t.Errorf("warps activated = %d, want 2", res.WarpsActivated)
	}
	if res.Stats.Issued == 0 || res.Stats.Loads == 0 || res.Stats.Stores == 0 {
		t.Errorf("stats not collected: %+v", res.Stats)
	}
	if res.Cycles != res.SimCycles+DefaultDispatchOverhead {
		t.Errorf("dispatch overhead not applied")
	}
	if res.L1.Accesses == 0 {
		t.Errorf("L1 stats not collected")
	}

	res = runVecadd(t, cfg, 128, 16)
	if res.Regime != core.RegimeExact || res.Batches != 1 {
		t.Errorf("lws=16 report = %+v", res)
	}
	res = runVecadd(t, cfg, 128, 64)
	if res.Regime != core.RegimeOver || res.WarpsActivated != 1 {
		t.Errorf("lws=64 report: regime=%v warps=%d", res.Regime, res.WarpsActivated)
	}
}

// TestLaunchCacheStatsIncludePrefetch pins the launch report's cache
// deltas to the hierarchy counters: on a next-line prefetching device the
// second of two launches must report exactly the prefetch fills and hits
// the hierarchy counted across it, not the lifetime totals and not zero.
func TestLaunchCacheStatsIncludePrefetch(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	cfg.Mem.Prefetch = mem.PrefetchNextLine
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hier := d.Sim().Hierarchy()
	runVecaddOn(t, d, 128, 1)
	before := hier.TotalL1Stats()
	res := runVecaddOn(t, d, 128, 1)
	after := hier.TotalL1Stats()
	wantIssued := after.PrefetchIssued - before.PrefetchIssued
	wantHits := after.PrefetchHits - before.PrefetchHits
	if before.PrefetchIssued == 0 || wantIssued == 0 || wantHits == 0 {
		t.Fatalf("nextline device prefetched nothing: before %+v, after %+v", before, after)
	}
	if res.L1.PrefetchIssued != wantIssued || res.L1.PrefetchHits != wantHits {
		t.Errorf("launch L1 prefetch issued/hits = %d/%d, hierarchy delta %d/%d",
			res.L1.PrefetchIssued, res.L1.PrefetchHits, wantIssued, wantHits)
	}
	if res.L1.Accesses != after.Accesses-before.Accesses {
		t.Errorf("launch L1 accesses = %d, hierarchy delta %d", res.L1.Accesses, after.Accesses-before.Accesses)
	}
}

func TestPartialWarpMasks(t *testing.T) {
	// gws=5 on 1c2w4t with lws=1: 5 tasks -> warp 0 full (4 lanes), warp 1
	// one lane.
	cfg := sim.DefaultConfig(1, 2, 4)
	res := runVecadd(t, cfg, 5, 1)
	if res.WarpsActivated != 2 {
		t.Errorf("warps activated = %d, want 2", res.WarpsActivated)
	}
}

func TestMulticoreDistribution(t *testing.T) {
	// 2 cores, 8 tasks, 4 slots per core: both cores get 4 tasks.
	cfg := sim.DefaultConfig(2, 1, 4)
	res := runVecadd(t, cfg, 8, 1)
	if res.WarpsActivated != 2 {
		t.Errorf("warps = %d, want 1 per core", res.WarpsActivated)
	}
	// 5 tasks: core 0 gets ceil(5/2)=3, core 1 gets 2.
	res = runVecadd(t, cfg, 5, 1)
	if res.WarpsActivated != 2 {
		t.Errorf("warps = %d, want 2", res.WarpsActivated)
	}
}

func TestTracingTagsSections(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := d.EnableTracing()
	defer d.DisableTracing()

	gws := 16
	bufA, _ := d.AllocFloat32(gws)
	bufB, _ := d.AllocFloat32(gws)
	bufC, _ := d.AllocFloat32(gws)
	d.WriteFloat32(bufA, make([]float32, gws))
	d.WriteFloat32(bufB, make([]float32, gws))
	k, _ := NewKernel(vecaddSrc)
	k.SetArgs(bufA, bufB, bufC)
	if _, err := d.EnqueueNDRange(k, gws, 0); err != nil {
		t.Fatal(err)
	}

	sum := col.Summarize()
	for _, section := range []string{"spawn", "wgloop", "localloop", "body", "exit"} {
		if sum.PerTag[section] == 0 {
			t.Errorf("no issues tagged %q: %v", section, sum.PerTag)
		}
	}
	if sum.WarpsUsed != 2 {
		t.Errorf("trace saw %d warps, want 2", sum.WarpsUsed)
	}
	var buf bytes.Buffer
	if err := col.RenderWaveform(&buf, trace.RenderOptions{Width: 60, ShowMask: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "c00w00") || !strings.Contains(out, "legend:") {
		t.Errorf("waveform missing rows/legend:\n%s", out)
	}
}

func TestArgumentTypes(t *testing.T) {
	d, err := NewDevice(sim.DefaultConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := d.Alloc(64)
	k, _ := NewKernel(KernelSource{Name: "args", Body: "nop"})
	if err := k.SetArgs(buf, 42, int32(-1), uint32(7), float32(1.5)); err != nil {
		t.Fatal(err)
	}
	if k.NumArgs() != 5 {
		t.Errorf("NumArgs = %d", k.NumArgs())
	}
	if err := k.SetArgs("nope"); err == nil {
		t.Error("string arg accepted")
	}
	if err := k.SetArgs(int(1) << 40); err == nil {
		t.Error("oversized int accepted")
	}
}

func TestLaunchValidation(t *testing.T) {
	d, err := NewDevice(sim.DefaultConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	k, _ := NewKernel(KernelSource{Name: "nopk", Body: "nop"})
	if _, err := d.EnqueueNDRange(k, 0, 1); err == nil {
		t.Error("gws=0 accepted")
	}
	if _, err := d.EnqueueNDRange(k, 4, -1); err == nil {
		t.Error("negative lws accepted")
	}
	if _, err := NewKernel(KernelSource{Name: "", Body: "nop"}); err == nil {
		t.Error("unnamed kernel accepted")
	}
	if _, err := NewKernel(KernelSource{Name: "x", Body: ""}); err == nil {
		t.Error("empty body accepted")
	}
	// Reserved define collision.
	bad, _ := NewKernel(KernelSource{Name: "bad", Body: "nop", Defs: map[string]int64{"GWS": 1}})
	if _, err := d.EnqueueNDRange(bad, 4, 1); err == nil {
		t.Error("reserved define collision accepted")
	}
}

func TestBufferAPI(t *testing.T) {
	d, err := NewDevice(sim.DefaultConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(0); err == nil {
		t.Error("zero alloc accepted")
	}
	b1, err := d.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := d.Alloc(100)
	if b2.Addr() < b1.Addr()+100 {
		t.Error("allocations overlap")
	}
	if b1.Addr()%64 != 0 || b2.Addr()%64 != 0 {
		t.Error("allocations not 64B aligned")
	}
	// Round trips.
	u := []uint32{1, 2, 3}
	if err := d.WriteUint32(b1, u); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadUint32(b1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u {
		if got[i] != u[i] {
			t.Errorf("u32[%d] = %d", i, got[i])
		}
	}
	f := []float32{1.5, -2.25}
	if err := d.WriteFloat32(b2, f); err != nil {
		t.Fatal(err)
	}
	gf, _ := d.ReadFloat32(b2, 2)
	for i := range f {
		if gf[i] != f[i] {
			t.Errorf("f32[%d] = %v", i, gf[i])
		}
	}
	// Overflow checks.
	if err := d.WriteUint32(b1, make([]uint32, 26)); err == nil {
		t.Error("oversized write accepted")
	}
	if _, err := d.ReadFloat32(b1, 26); err == nil {
		t.Error("oversized read accepted")
	}
}

func TestMapperPluggability(t *testing.T) {
	cfg := sim.DefaultConfig(1, 2, 4)
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetMapper(core.Fixed{N: 32})
	if d.Mapper().Name() != "lws=32" {
		t.Errorf("mapper = %s", d.Mapper().Name())
	}
	buf, _ := d.AllocFloat32(128)
	k, _ := NewKernel(vecaddSrc)
	k.SetArgs(buf, buf, buf)
	res, err := d.EnqueueNDRange(k, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LWS != 32 {
		t.Errorf("fixed mapper chose lws=%d", res.LWS)
	}
}

func TestTrapAnnotatedWithSource(t *testing.T) {
	d, err := NewDevice(sim.DefaultConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Kernel that loads from an invalid address.
	k, _ := NewKernel(KernelSource{Name: "crash", Body: `
	li t0, 0x7F000000
	lw t1, 0(t0)
`})
	_, err = d.EnqueueNDRange(k, 2, 1)
	if err == nil {
		t.Fatal("crash kernel succeeded")
	}
	if !strings.Contains(err.Error(), "at: lw") {
		t.Errorf("trap not annotated with source: %v", err)
	}
}

func TestDispatchOverheadKnob(t *testing.T) {
	cfg := sim.DefaultConfig(1, 1, 2)
	d, _ := NewDevice(cfg)
	d.DispatchOverhead = 0
	buf, _ := d.AllocFloat32(8)
	k, _ := NewKernel(vecaddSrc)
	k.SetArgs(buf, buf, buf)
	res, err := d.EnqueueNDRange(k, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res.SimCycles {
		t.Errorf("overhead 0: Cycles %d != SimCycles %d", res.Cycles, res.SimCycles)
	}
}

func TestBoundednessReported(t *testing.T) {
	// On a wide, bandwidth-starved device vecadd must classify as
	// memory-bound: many slots, almost no compute per byte, 2 B/cycle DRAM.
	cfg := sim.DefaultConfig(2, 8, 8)
	cfg.Mem.DRAM.BytesPerCycle = 2
	res := runVecadd(t, cfg, 8192, 0)
	if res.Boundedness != core.MemoryBound {
		t.Errorf("vecadd classified %v (memStall=%d execStall=%d cycles=%d)",
			res.Boundedness, res.Stats.MemStall, res.Stats.ExecStall, res.SimCycles)
	}
}
