package kernel

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// withProfile applies p for the duration of f, restoring the previously
// active profile afterwards. ensureTuned is spent first so the Once
// cannot fire mid-test and overwrite the applied profile.
func withProfile(t *testing.T, p Profile, f func()) {
	t.Helper()
	ensureTuned()
	prev, _ := ActiveProfile()
	if err := applyProfile(p); err != nil {
		t.Fatalf("applyProfile(%+v): %v", p, err)
	}
	defer func() {
		if err := applyProfile(prev); err != nil {
			t.Fatalf("restore profile: %v", err)
		}
	}()
	f()
}

// testProfiles returns one profile per registered micro-kernel at the
// static blocking, plus odd-blocking variants of the default kernel —
// the grid the bit-identity and accuracy tests sweep.
func testProfiles() []Profile {
	var out []Profile
	for name, impl := range microImpls {
		p := defaultProfile()
		p.Kernel, p.MR, p.NR = name, impl.mr, impl.nr
		out = append(out, p)
	}
	for _, blk := range [][3]int{{72, 48, 96}, {328, 384, 2048}} {
		p := defaultProfile()
		p.KC, p.MC, p.NC = blk[0], blk[1], blk[2]
		out = append(out, p)
	}
	return out
}

// TestGetrfBitIdenticalAcrossProfiles pins the panel layer's invariant
// under the tuner: whatever GEMM profile is active — any registered
// micro-kernel, any blocking — the blocked Getrf produces pivots and
// values EXACTLY equal to scalar Getf2, because the panel tile (pmr x
// pnr) and its separate multiply/subtract rounding never move with the
// profile.
func TestGetrfBitIdenticalAcrossProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := randView(rng, 193, 61)
	for _, p := range testProfiles() {
		p := p
		name := fmt.Sprintf("%s-kc%d-mc%d-nc%d", p.Kernel, p.KC, p.MC, p.NC)
		t.Run(name, func(t *testing.T) {
			withProfile(t, p, func() {
				blocked := cloneView(src)
				scalar := cloneView(src)
				pivB := make([]int, 61)
				pivS := make([]int, 61)
				if err := Getrf(blocked, pivB); err != nil {
					t.Fatal(err)
				}
				if err := Getf2(scalar, pivS); err != nil {
					t.Fatal(err)
				}
				for i := range pivB {
					if pivB[i] != pivS[i] {
						t.Fatalf("pivot %d: blocked %d scalar %d", i, pivB[i], pivS[i])
					}
				}
				if d := maxAbsDiffBacking(blocked, scalar); d != 0 {
					t.Fatalf("values diverge: max |diff| = %g (want exactly 0)", d)
				}
			})
		})
	}
}

// TestGemmAccurateAcrossProfiles sweeps the same profile grid over the
// packed GEMM dispatcher against the naive oracle. Packed results vary
// bitwise with kc (the accumulator flushes per kc block), so this is a
// tolerance check, not bit-identity.
func TestGemmAccurateAcrossProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randView(rng, 137, 93)
	b := randView(rng, 93, 121)
	c0 := randView(rng, 137, 121)
	want := cloneView(c0)
	gemmNaive(want, a, b)
	for _, p := range testProfiles() {
		p := p
		name := fmt.Sprintf("%s-kc%d-mc%d-nc%d", p.Kernel, p.KC, p.MC, p.NC)
		t.Run(name, func(t *testing.T) {
			withProfile(t, p, func() {
				c := cloneView(c0)
				Gemm(c, a, b)
				if d := maxAbsDiffBacking(c, want); d > gemmTol(want) {
					t.Fatalf("max |diff| = %g > tol %g", d, gemmTol(want))
				}
			})
		})
	}
}

// TestApplyProfileRejectsGarbage: unknown kernels and out-of-range
// blocking must be refused, leaving the active configuration untouched.
func TestApplyProfileRejectsGarbage(t *testing.T) {
	ensureTuned()
	before, _ := ActiveProfile()
	bad := []Profile{
		func() Profile { p := defaultProfile(); p.Kernel = "no-such-kernel"; return p }(),
		func() Profile { p := defaultProfile(); p.KC = 8; return p }(),
		func() Profile { p := defaultProfile(); p.NC = 100000; return p }(),
	}
	for _, p := range bad {
		if err := applyProfile(p); err == nil {
			t.Errorf("applyProfile(%+v) accepted garbage", p)
		}
	}
	after, _ := ActiveProfile()
	if before != after {
		t.Fatalf("rejected profiles mutated the active one: %+v -> %+v", before, after)
	}
}

// TestProfilePersistenceRoundtrip: store/load through HSD_TUNE_DIR is
// lossless, and stale version/signature/kernel entries are refused so a
// format bump forces a re-search instead of applying garbage.
func TestProfilePersistenceRoundtrip(t *testing.T) {
	t.Setenv("HSD_TUNE_DIR", t.TempDir())
	p := defaultProfile()
	p.Signature = cpuSignature()
	p.KC, p.MC, p.NC = 72, 48, 96
	p.GFLOPS = 12.5
	storeProfile(p)
	got, ok := loadProfile(p.Signature)
	if !ok {
		t.Fatal("stored profile did not load")
	}
	if got != p {
		t.Fatalf("roundtrip mismatch: stored %+v loaded %+v", p, got)
	}
	if _, ok := loadProfile("0123456789abcdef"); ok {
		t.Fatal("loaded a profile under the wrong signature")
	}
	stale := p
	stale.Version = profileVersion + 1
	storeProfile(stale)
	if _, ok := loadProfile(p.Signature); ok {
		t.Fatal("loaded a profile with a stale version")
	}
	stale = p
	stale.Kernel = "retired-kernel"
	storeProfile(stale)
	if _, ok := loadProfile(p.Signature); ok {
		t.Fatal("loaded a profile naming an unregistered kernel")
	}
}

// TestTunedProfileDeterministic: the first resolution searches and
// persists; every later resolution in the same cache dir loads the
// identical profile without re-benchmarking — the property that makes
// tuned runs reproducible across processes on one machine.
func TestTunedProfileDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-benchmark search in -short mode")
	}
	t.Setenv("HSD_TUNE_DIR", t.TempDir())
	ensureTuned()
	prev, _ := ActiveProfile()
	defer func() {
		if err := applyProfile(prev); err != nil {
			t.Fatalf("restore profile: %v", err)
		}
	}()
	p1, src1 := tunedProfile()
	if src1 != "searched" {
		t.Fatalf("cold resolution source = %q, want searched", src1)
	}
	p2, src2 := tunedProfile()
	if src2 != "persisted" {
		t.Fatalf("warm resolution source = %q, want persisted", src2)
	}
	if p1 != p2 {
		t.Fatalf("warm profile differs from searched one:\n  searched  %+v\n  persisted %+v", p1, p2)
	}
}

// TestCandidateProfilesRespectBounds: every cache geometry, including
// absurd ones, must produce candidates applyProfile accepts.
func TestCandidateProfilesRespectBounds(t *testing.T) {
	ensureTuned()
	prev, _ := ActiveProfile()
	defer applyProfile(prev)
	geoms := []caches{
		defaultCaches,
		{L1: 16 << 10, L2: 128 << 10, L3: 1 << 20},
		{L1: 1 << 20, L2: 64 << 20, L3: 512 << 20},
		{L1: 1, L2: 1, L3: 1},
	}
	for _, c := range geoms {
		for _, p := range candidateProfiles(c) {
			if err := applyProfile(p); err != nil {
				t.Errorf("caches %+v produced rejected candidate %+v: %v", c, p, err)
			}
		}
	}
}

// TestCandidateBlockingFromCaches: one candidate per searched kernel,
// with the static blocking wherever it is cache-resident and the
// largest resident blocking where it is not. The blocking is not timed,
// so it cannot change between two processes on one machine.
func TestCandidateBlockingFromCaches(t *testing.T) {
	for _, tc := range []struct {
		c      caches
		static bool
	}{
		{caches{L1: 48 << 10, L2: 2 << 20, L3: 32 << 20}, true},
		{caches{L1: 16 << 10, L2: 128 << 10, L3: 1 << 20}, false},
	} {
		cands := candidateProfiles(tc.c)
		if len(cands) != len(searchKernels()) {
			t.Fatalf("caches %+v: %d candidates for %d kernels", tc.c, len(cands), len(searchKernels()))
		}
		for _, p := range cands {
			static := p.KC == defaultKC && p.MC == defaultMC && p.NC == defaultNC
			if static != tc.static {
				t.Errorf("caches %+v: candidate %+v, want static blocking %v", tc.c, p, tc.static)
			}
		}
	}
}

// TestKernelSwitchKeepsWorkspaces: packing buffers are sized by the
// blocking alone, so re-applying a profile at the same blocking keeps
// the free list (the tuner's timed turns then allocate nothing), and a
// new blocking drops it.
func TestKernelSwitchKeepsWorkspaces(t *testing.T) {
	p := defaultProfile()
	withProfile(t, p, func() {
		putWorkspace(getWorkspace())
		if free, _ := wsState(); free == 0 {
			t.Fatal("free list empty after a put")
		}
		for name, impl := range microImpls {
			q := p
			q.Kernel, q.MR, q.NR = name, impl.mr, impl.nr
			if err := applyProfile(q); err != nil {
				t.Fatal(err)
			}
			if free, _ := wsState(); free == 0 {
				t.Fatalf("switching to kernel %s at the same blocking dropped the free list", name)
			}
		}
		q := p
		q.KC = defaultKC / 2
		if err := applyProfile(q); err != nil {
			t.Fatal(err)
		}
		if free, _ := wsState(); free != 0 {
			t.Fatalf("a new blocking kept %d stale buffers", free)
		}
	})
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int64{
		"32K": 32 << 10, "1024K": 1 << 20, "8M": 8 << 20,
		"1G": 1 << 30, "977": 977, "": 0, "bogus": 0, "12Q": 0,
	}
	for in, want := range cases {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}

// TestTuneOffPinsStaticDefaults re-executes the test binary with
// HSD_TUNE=off and verifies the escape hatch: no probe, no search, the
// static default profile active.
func TestTuneOffPinsStaticDefaults(t *testing.T) {
	if os.Getenv("HSD_TUNE_OFF_HELPER") == "1" {
		p, src := ActiveProfile()
		d := defaultProfile()
		if src != "static" || p.Kernel != d.Kernel || p.KC != defaultKC || p.MC != defaultMC || p.NC != defaultNC {
			fmt.Printf("HSD_TUNE=off left profile %+v (source %q)\n", p, src)
			os.Exit(1)
		}
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestTuneOffPinsStaticDefaults$", "-test.v")
	cmd.Env = append(os.Environ(),
		"HSD_TUNE=off", "HSD_TUNE_OFF_HELPER=1",
		"HSD_TUNE_DIR="+filepath.Join(t.TempDir(), "unused"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("subprocess: %v\n%s", err, out)
	}
}
