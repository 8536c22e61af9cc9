package kernel

import (
	"os"
	"sync"
)

// Blocking parameters of the packed GEMM, following the classic
// three-level Goto/BLIS decomposition:
//
//   - mr x nr is the register tile computed by the micro-kernel. The
//     portable micro-kernel uses 4x4 (16 scalar accumulators); the
//     amd64 AVX2+FMA micro-kernels use 8x4 (eight 256-bit accumulator
//     registers) or 8x6 (twelve). mr and nr are variables because the
//     platform init and the autotuner may swap micro-kernels.
//   - kc limits the k extent of one packed A/B pair so that an mr x kc
//     sliver of A plus a kc x nr sliver of B stay L1-resident while the
//     micro-kernel streams over them.
//   - mc limits the row extent of the packed A block (mc x kc doubles)
//     so it stays L2-resident across the whole macro-kernel sweep.
//   - nc limits the column extent of the packed B block (kc x nc
//     doubles), the L3-resident operand.
//
// Historically kc/mc/nc were constants hand-picked for one Xeon; they
// are now fields of a tuning Profile selected at first kernel use by a
// cache-size probe plus a short micro-benchmark of the kernels
// (tuner.go), and persisted per CPU signature so later processes start
// tuned. The values below are the static defaults — the pre-tuner
// behaviour, and what HSD_TUNE=off pins for A/B comparison.
const (
	defaultKC = 256
	defaultMC = 128
	defaultNC = 512

	// maxMR/maxNR bound the register tile over all micro-kernel
	// implementations; the macro-kernel's accumulator scratch is sized
	// by them.
	maxMR = 8
	maxNR = 6
)

// Active GEMM blocking; mutated only by applyProfile (before any
// concurrent kernel use, behind the ensureTuned gate) and read
// everywhere else.
//
//hsd:profile-state
var (
	kc = defaultKC
	mc = defaultMC
	nc = defaultNC
)

// mr x nr is the active GEMM register tile; the platform init installs
// the widest supported kernel (microkernel_amd64.go) and the tuner may
// replace it with whichever registered kernel benches fastest.
//
//hsd:profile-state
var (
	mr = 4
	nr = 4
)

// microKernel computes acc[j*mr+i] = sum_l ap[l*mr+i]*bp[l*nr+j] for a
// full register tile over kk packed k-steps. It must not touch C; the
// macro-kernel subtracts acc into C afterwards, masking edge tiles.
//
//hsd:profile-state
var microKernel = micro4x4

// pmr x pnr is the register tile of the blocked GETRF panel path. It is
// deliberately NOT a tuning knob: the panel kernel's bit-identity
// contract (separate multiply/subtract rounding, see getrf.go) ties it
// to a specific assembly implementation, so it is fixed by the platform
// init (8x4 with AVX2, else the portable 4x4) and never moves with the
// GEMM tile the tuner selects.
var (
	pmr = 4
	pnr = 4
)

// gemmMinFlops is the m*n*k product below which the packed path does
// not pay for its packing traffic and the dispatcher keeps the direct
// small path. Part of the tuning profile so the crossover can move with
// the machine; 32^3 is the static default benched on the shapes
// RecursiveLU and the CALU update generate.
//
//hsd:profile-state
var gemmMinFlops = 32 * 32 * 32

// packedWorthwhile reports whether C (m x n) -= A*B over k should take
// the packed register-tiled path.
func packedWorthwhile(m, n, k int) bool {
	return m >= 4 && n >= 4 && k >= 4 && m*n*k >= gemmMinFlops
}

// trsmBlock is the diagonal-block size of the blocked triangular
// solves: diagonal trsmBlock x trsmBlock systems are solved by the
// naive kernels and everything off-diagonal becomes a GEMM.
const trsmBlock = 32

// panelCrossover is the column count at or below which RecursiveLU
// stops recursing and hands the whole leaf to the blocked micro-panel
// Getrf. It was 16 when the leaves were scalar Getf2; the blocked
// kernel keeps BLAS-3-like reuse up to much wider leaves, so splitting
// below 64 columns only adds recursion overhead.
const panelCrossover = 64

// panelMinArea is the m*n panel area below which the blocked GETRF
// cannot amortize its packing traffic and workspace round trip. Part of
// the tuning profile, like gemmMinFlops.
//
//hsd:profile-state
var panelMinArea = 32 * 32

// panelBlockedWorthwhile reports whether an m x n panel factorization
// should take the blocked micro-panel path: it needs at least two
// register rows to tile, more columns than one micro-panel (otherwise
// there is no trailing update to block), and enough area to pay for
// packing.
func panelBlockedWorthwhile(m, n int) bool {
	return m >= 2*pmr && n > pmr && m*n >= panelMinArea
}

// useNaiveKernels pins every dispatcher to the naive reference kernels.
// It exists for tests (pivot-invariance and differential runs); it is
// not a tuning knob.
var useNaiveKernels = false

// ---------------------------------------------------------------------
// Tuning profiles.

// profileVersion invalidates persisted profiles whenever the packed
// formats, the candidate kernels or the rules that choose among them
// change. Version 2: the blocking comes from the cache sizes, not from
// timing.
const profileVersion = 2

// Profile is one complete kernel configuration: the micro-kernel and
// the three blocking levels, plus the dispatch crossovers. A Profile is
// what the tuner searches over, persists under os.UserCacheDir(), and
// applies at first kernel use.
type Profile struct {
	// Version is profileVersion at store time; mismatches force a
	// re-tune.
	Version int `json:"version"`
	// Signature identifies the CPU the profile was tuned on.
	Signature string `json:"signature"`
	// Kernel names the registered micro-kernel ("portable-4x4",
	// "avx2-8x4", "avx2-8x6").
	Kernel string `json:"kernel"`
	// MR/NR record the kernel's register tile (informational; the
	// kernel name is authoritative).
	MR int `json:"mr"`
	NR int `json:"nr"`
	// KC/MC/NC are the three blocking levels.
	KC int `json:"kc"`
	MC int `json:"mc"`
	NC int `json:"nc"`
	// GemmMinFlops and PanelMinArea are the dispatch crossovers.
	GemmMinFlops int `json:"gemmMinFlops"`
	PanelMinArea int `json:"panelMinArea"`
	// GFLOPS is the micro-benchmark score the profile achieved during
	// the search (0 for static defaults and loaded profiles that did
	// not re-bench).
	GFLOPS float64 `json:"gflops"`
}

// microImpl is one registered micro-kernel implementation.
type microImpl struct {
	name   string
	mr, nr int
	fn     func(kk int, ap, bp, acc []float64)
}

// microImpls is the kernel registry; platform inits append their
// entries before any tuning runs.
var microImpls = map[string]microImpl{
	"portable-4x4": {name: "portable-4x4", mr: 4, nr: 4, fn: micro4x4},
}

// defaultKernelName is the widest kernel the platform init installed —
// the static-default (HSD_TUNE=off) choice.
var defaultKernelName = "portable-4x4"

// defaultProfile reproduces the pre-tuner behaviour: the platform's
// widest micro-kernel with the hand-picked blocking constants.
func defaultProfile() Profile {
	impl := microImpls[defaultKernelName]
	return Profile{
		Version:      profileVersion,
		Kernel:       impl.name,
		MR:           impl.mr,
		NR:           impl.nr,
		KC:           defaultKC,
		MC:           defaultMC,
		NC:           defaultNC,
		GemmMinFlops: 32 * 32 * 32,
		PanelMinArea: 32 * 32,
	}
}

var (
	tuneOnce sync.Once
	// The reported profile and its provenance move with the blocking
	// globals under the same gate.
	activeProfile = defaultProfile() //hsd:profile-state
	tuneSource    = "static"         //hsd:profile-state ("static", "persisted" or "searched")
)

// ensureTuned runs the autotuner exactly once, before the first real
// kernel dispatch. Every exported kernel entry point (and Reserve)
// calls it; concurrent callers block until tuning completes, so the
// blocking globals are never mutated under a running kernel. HSD_TUNE=off
// skips the tuner entirely and keeps the static defaults.
func ensureTuned() {
	tuneOnce.Do(func() {
		if os.Getenv("HSD_TUNE") == "off" {
			// The blocking globals already hold the static defaults; only
			// the reported profile needs refreshing, because its package-
			// var snapshot ran before the platform init registered the
			// vector kernels.
			wsMu.Lock()
			activeProfile = defaultProfile()
			wsMu.Unlock()
			return
		}
		p, src := tunedProfile()
		if err := applyProfile(p); err != nil {
			// An unusable persisted profile (stale kernel name, garbage
			// sizes): fall back to the static defaults rather than fail.
			applyProfile(defaultProfile())
			src = "static"
		}
		tuneSource = src
	})
}

// applyProfile installs p as the active kernel configuration. The
// workspace free list is flushed so every later checkout is sized for
// the new blocking. Callers must guarantee no kernel is concurrently
// executing (the ensureTuned gate does in production; tests serialize).
func applyProfile(p Profile) error {
	impl, ok := microImpls[p.Kernel]
	if !ok {
		return &profileError{p.Kernel, "unknown kernel"}
	}
	if p.KC < 16 || p.MC < impl.mr || p.NC < impl.nr ||
		p.KC > 4096 || p.MC > 4096 || p.NC > 8192 {
		return &profileError{p.Kernel, "blocking out of range"}
	}
	wsMu.Lock()
	defer wsMu.Unlock()
	resized := kc != p.KC || mc != p.MC || nc != p.NC
	mr, nr = impl.mr, impl.nr
	microKernel = impl.fn
	kc, mc, nc = p.KC, p.MC, p.NC
	if p.GemmMinFlops > 0 {
		gemmMinFlops = p.GemmMinFlops
	}
	if p.PanelMinArea > 0 {
		panelMinArea = p.PanelMinArea
	}
	p.MR, p.NR = impl.mr, impl.nr
	activeProfile = p
	// Stale-size buffers on the free list would under-fit the new
	// blocking; drop them (putWorkspace also guards, so checked-out
	// buffers returned later are dropped too). Buffer sizes depend on
	// the blocking alone, so a kernel switch keeps them.
	if resized {
		for i := range wsFree {
			wsFree[i] = nil
		}
		wsFree = wsFree[:0]
	}
	return nil
}

type profileError struct {
	kernel, msg string
}

func (e *profileError) Error() string {
	return "kernel: profile " + e.kernel + ": " + e.msg
}

// ActiveProfile returns the kernel configuration in effect (running the
// tuner first if it has not run yet) and how it was obtained: "static"
// (defaults / HSD_TUNE=off), "persisted" (loaded from the per-CPU cache
// file) or "searched" (micro-benchmark search this process).
func ActiveProfile() (Profile, string) {
	ensureTuned()
	wsMu.Lock()
	defer wsMu.Unlock()
	return activeProfile, tuneSource
}
