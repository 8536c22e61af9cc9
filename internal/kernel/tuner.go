package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The autotuner: pick the kernel Profile for this machine.
//
// Three stages, each cheap enough to hide in process start-up:
//
//  1. Probe the cache hierarchy — sysfs on Linux, a pointer-chase
//     timing probe elsewhere, conservative defaults as the last resort.
//  2. Pick the blocking from the cache sizes (the static blocking where
//     it is resident, else kc from L1, mc from L2, nc from L3 by the
//     Goto residency rules) for each registered wide micro-kernel, and
//     micro-benchmark the kernels against each other on one packed
//     GEMM; the fastest wins.
//  3. Persist the winner as JSON under os.UserCacheDir()/hsd keyed by a
//     CPU signature, so every later process (and every later test
//     binary on a CI runner) starts tuned without searching.
//
// HSD_TUNE=off skips all of it (static defaults); HSD_TUNE_DIR
// overrides the persistence directory (tests and CI use a temp dir to
// exercise the cold and warm paths deterministically).

// caches is the probed hierarchy in bytes (per-core L1d/L2, shared L3).
type caches struct {
	L1 int64
	L2 int64
	L3 int64
}

// defaultCaches are the conservative fallback: a small modern x86/arm
// core. Overestimating would oversize the packed blocks and thrash.
var defaultCaches = caches{L1: 32 << 10, L2: 512 << 10, L3: 8 << 20}

// tunedProfile resolves the profile to apply: persisted if present and
// valid, otherwise a fresh search (persisted best-effort afterwards).
func tunedProfile() (Profile, string) {
	sig := cpuSignature()
	if p, ok := loadProfile(sig); ok {
		return p, "persisted"
	}
	p := searchProfile(probeCaches())
	p.Signature = sig
	storeProfile(p)
	return p, "searched"
}

// ---------------------------------------------------------------------
// Cache probe.

// probeCaches returns the cache hierarchy: sysfs when available, the
// timing probe otherwise, defaults for whatever stays unknown.
func probeCaches() caches {
	c := sysfsCaches()
	if c.L1 == 0 && c.L2 == 0 {
		c = timingCaches()
	}
	if c.L1 == 0 {
		c.L1 = defaultCaches.L1
	}
	if c.L2 == 0 {
		c.L2 = defaultCaches.L2
	}
	if c.L3 == 0 {
		c.L3 = defaultCaches.L3
	}
	return c
}

// sysfsCaches reads /sys/devices/system/cpu/cpu0/cache/index*/ — the
// kernel's own CPUID/ACPI enumeration, so it covers every x86 and arm
// Linux machine without asm.
func sysfsCaches() caches {
	var c caches
	base := "/sys/devices/system/cpu/cpu0/cache"
	entries, err := os.ReadDir(base)
	if err != nil {
		return c
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		dir := filepath.Join(base, e.Name())
		typ := strings.TrimSpace(readSmallFile(filepath.Join(dir, "type")))
		if typ == "Instruction" {
			continue
		}
		level := strings.TrimSpace(readSmallFile(filepath.Join(dir, "level")))
		size := parseCacheSize(strings.TrimSpace(readSmallFile(filepath.Join(dir, "size"))))
		if size <= 0 {
			continue
		}
		switch level {
		case "1":
			c.L1 = size
		case "2":
			c.L2 = size
		case "3":
			c.L3 = size
		}
	}
	return c
}

func readSmallFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// parseCacheSize parses the sysfs "size" format: "32K", "1024K", "8M".
func parseCacheSize(s string) int64 {
	if s == "" {
		return 0
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	var n int64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int64(r-'0')
	}
	return n * mult
}

// timingCaches estimates L1/L2 by pointer-chasing buffers of doubling
// size and watching the per-access latency step up when the working set
// falls out of a level. Coarse on purpose — the derived blocking only
// needs the right order of magnitude — and bounded to a few
// milliseconds.
func timingCaches() caches {
	var c caches
	sizes := []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
		512 << 10, 1 << 20, 2 << 20, 4 << 20}
	lat := make([]float64, len(sizes))
	for i, sz := range sizes {
		lat[i] = chaseLatency(int(sz))
	}
	// A level boundary shows as a >=1.5x latency jump between
	// consecutive sizes; the last size before the first jump is L1, the
	// last before the second is L2.
	level := 0
	for i := 1; i < len(sizes); i++ {
		if lat[i] > 1.5*lat[i-1] {
			switch level {
			case 0:
				c.L1 = sizes[i-1]
			case 1:
				c.L2 = sizes[i-1]
			}
			level++
			if level == 2 {
				break
			}
		}
	}
	return c
}

// chaseLatency measures ns per dependent load over a shuffled cyclic
// pointer chain filling size bytes.
func chaseLatency(size int) float64 {
	n := size / 8
	if n < 64 {
		n = 64
	}
	idx := make([]int32, n)
	// Deterministic LCG shuffle: a permutation cycle with stride far
	// from the prefetchers' comfort zone.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	state := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		idx[perm[i]] = perm[(i+1)%n]
	}
	const steps = 1 << 16
	p := int32(0)
	start := time.Now()
	for s := 0; s < steps; s++ {
		p = idx[p]
	}
	el := time.Since(start)
	if p < 0 { // defeat dead-code elimination; never true
		panic("unreachable")
	}
	return float64(el.Nanoseconds()) / steps
}

// ---------------------------------------------------------------------
// Candidates and micro-benchmark search.

// searchProfile times one candidate per registered kernel and returns
// the fastest. The portable 4x4 kernel is the correctness oracle, not a
// candidate — it can never beat a vector kernel it coexists with, so it
// is only searched when it is the sole registered kernel.
func searchProfile(c caches) Profile {
	cands := candidateProfiles(c)
	scores := benchProfiles(cands)
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	p := cands[best]
	p.GFLOPS = scores[best]
	applyProfile(p)
	return p
}

// candidateProfiles returns one candidate per kernel. The blocking is
// chosen from the cache sizes, not timed, by the Goto residency rules:
//
//	kc: an mr x kc A sliver plus a kc x nr B sliver at 3/4 L1;
//	mc: the mc x kc packed A block at half of L2;
//	nc: the kc x nc packed B block at a quarter of (shared) L3.
//
// The static blocking is kept wherever it is resident, and the largest
// resident blocking replaces it only where it is not. Timing cannot
// make this choice: on a 2-vCPU Xeon one 320³ GEMM scored the larger
// resident blockings within its own run-to-run noise of the static
// one, so the pick changed from process to process, and those
// blockings ran n=448–512 factorizations 9–27% slower.
func candidateProfiles(c caches) []Profile {
	var out []Profile
	for _, name := range searchKernels() {
		impl := microImpls[name]
		kcc := roundDown(int(c.L1*3/4)/(8*(impl.mr+impl.nr)), 8)
		kcc = clamp(kcc, 64, 512)
		mcc := roundDown(int(c.L2/2)/(8*kcc), 2*impl.mr)
		mcc = clamp(mcc, 2*impl.mr, 512)
		ncc := roundDown(int(c.L3/4)/(8*kcc), 2*impl.nr)
		ncc = clamp(ncc, 16*impl.nr, 2048)
		p := defaultProfile()
		p.Kernel, p.MR, p.NR = impl.name, impl.mr, impl.nr
		if defaultKC > kcc || defaultMC > mcc || defaultNC > ncc {
			p.KC, p.MC, p.NC = kcc, mcc, ncc
		}
		out = append(out, p)
	}
	return out
}

// searchKernels lists the kernels worth benchmarking.
func searchKernels() []string {
	var names []string
	for name := range microImpls {
		if name == "portable-4x4" && len(microImpls) > 1 {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// benchN is the micro-benchmark GEMM size: big enough that the static
// blocking's three levels engage (n > nc/2, k > kc), small enough that
// the whole search stays in a few tens of milliseconds.
const benchN = 320

// searchRounds is how many times each candidate is timed.
const searchRounds = 5

// benchProfiles times C -= A*B at benchN³ under each profile and
// returns GFLOPS per profile (0 for an unusable one). The candidates
// take turns, one timed rep per round, so a slow spell of the host
// hits all of them rather than one; each scores its best rep. A turn
// whose blocking differs from the previous one's first runs an untimed
// warm-up rep, which faults in the resized packing buffers.
func benchProfiles(ps []Profile) []float64 {
	n := benchN
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	cdat := make([]float64, n*n)
	// Deterministic pseudo-random fill; values are irrelevant to
	// timing but should not be denormal.
	state := uint64(1)
	for i := range a {
		state = state*6364136223846793005 + 1442695040888963407
		a[i] = 1 + float64(state>>40)*1e-6
		b[i] = 1 - float64(state>>44)*1e-6
	}
	av := View{Rows: n, Cols: n, Stride: n, Data: a}
	bv := View{Rows: n, Cols: n, Stride: n, Data: b}
	cv := View{Rows: n, Cols: n, Stride: n, Data: cdat}
	flops := 2 * float64(n) * float64(n) * float64(n)
	scores := make([]float64, len(ps))
	var warm [3]int
	for rep := 0; rep < searchRounds; rep++ {
		for i, p := range ps {
			if applyProfile(p) != nil {
				continue
			}
			if blk := [3]int{p.KC, p.MC, p.NC}; blk != warm {
				gemmPacked(cv, av, bv, false)
				warm = blk
			}
			start := time.Now()
			gemmPacked(cv, av, bv, false)
			if s := flops / float64(time.Since(start).Nanoseconds()); s > scores[i] {
				scores[i] = s
			}
		}
	}
	return scores
}

func roundDown(v, m int) int {
	if m <= 0 {
		return v
	}
	return v - v%m
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---------------------------------------------------------------------
// Persistence.

// cpuSignature hashes everything a profile depends on: the CPU model,
// the cache sizes, the registered kernels and the format version. Any
// change — new machine, new kernel in the registry, new packed format —
// yields a new file and a fresh search.
func cpuSignature() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s|%s|", profileVersion, runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(h, "%s|", cpuModelName())
	c := sysfsCaches()
	fmt.Fprintf(h, "%d/%d/%d|", c.L1, c.L2, c.L3)
	names := make([]string, 0, len(microImpls))
	for name := range microImpls {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "%s", strings.Join(names, ","))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModelName extracts "model name" from /proc/cpuinfo (empty
// elsewhere; GOOS/GOARCH still key the signature).
func cpuModelName() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// tuneDir resolves the profile cache directory: HSD_TUNE_DIR, else
// os.UserCacheDir()/hsd.
func tuneDir() (string, error) {
	if d := os.Getenv("HSD_TUNE_DIR"); d != "" {
		return d, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "hsd"), nil
}

func profilePath(sig string) (string, error) {
	dir, err := tuneDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "tune-"+sig+".json"), nil
}

// loadProfile reads and validates the persisted profile for sig.
func loadProfile(sig string) (Profile, bool) {
	path, err := profilePath(sig)
	if err != nil {
		return Profile{}, false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, false
	}
	var p Profile
	if json.Unmarshal(b, &p) != nil {
		return Profile{}, false
	}
	if p.Version != profileVersion || p.Signature != sig {
		return Profile{}, false
	}
	if _, ok := microImpls[p.Kernel]; !ok {
		return Profile{}, false
	}
	return p, true
}

// storeProfile persists p atomically (temp file + rename); failures are
// silent — an unwritable cache dir only costs the next process a
// re-search.
func storeProfile(p Profile) {
	path, err := profilePath(p.Signature)
	if err != nil {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tune-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}
