// Package montage generates Montage mosaic workflows with the structure,
// task counts, runtimes and data volumes of the workflows the paper
// simulated.
//
// The real workflows were produced by Montage's mDAG component for the
// M17 region and profiled on real runs; neither artifact is available
// here, so this package is the synthetic equivalent: it emits the
// canonical nine-level Montage DAG
//
//	mProject (N) -> mDiffFit (D) -> mConcatFit -> mBgModel ->
//	mBackground (N) -> mAdd -> mShrink -> mJPEG
//
// with task totals 2N + D + 5 matching the paper exactly
// (203 / 731 / 3,027 tasks for the 1/2/4-degree mosaics), and calibrates
// runtimes and file sizes to the paper's published aggregates:
//
//   - total CPU time 5.6 / 20.3 / 84 CPU-hours (from the Fig. 10 CPU
//     costs of $0.56 / $2.03 / $8.40 at $0.10 per CPU-hour),
//   - final mosaic sizes 173.46 MB / 557.9 MB / 2.229 GB (§6, Q3), and
//   - CCR 0.053 / 0.053 / 0.045 at the 10 Mbps reference bandwidth.
package montage

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dag"
	"repro/internal/trace"
	"repro/internal/units"
)

// Spec parameterizes one Montage workflow.
type Spec struct {
	Name    string
	Degrees float64 // mosaic edge length in degrees (documentation only)
	Images  int     // N: input images, also mProject and mBackground count
	Diffs   int     // D: overlapping image pairs, the mDiffFit count

	// TotalCPU is the calibration target for the sum of task runtimes.
	TotalCPU units.Duration
	// MosaicBytes pins the size of the final mosaic FITS file.
	MosaicBytes units.Bytes
	// TargetCCR, when positive, rescales intermediate file sizes so the
	// workflow's CCR at Bandwidth matches it.
	TargetCCR float64
	// Bandwidth is the reference bandwidth for the CCR calibration; the
	// paper uses 10 Mbps.
	Bandwidth units.Bandwidth
	// Seed drives the deterministic runtime/size jitter.
	Seed int64
}

// The three workflows simulated in the paper.  Task counts come from §5;
// CPU totals from Fig. 10; mosaic sizes and CCRs from §6.
//
// N and D are chosen so 2N+D+5 reproduces the published task counts with
// a diff-to-image ratio (~2.4-2.6) consistent with a gridded sky overlap
// pattern.

// OneDegree returns the spec of the 1-degree-square M17 mosaic workflow
// (203 tasks).
func OneDegree() Spec {
	return Spec{
		Name: "montage-1deg", Degrees: 1, Images: 45, Diffs: 108,
		TotalCPU:    units.Duration(5.6 * units.SecondsPerHour),
		MosaicBytes: units.Bytes(173.46 * units.MB),
		TargetCCR:   0.053, Bandwidth: units.Mbps(10), Seed: 1,
	}
}

// TwoDegree returns the spec of the 2-degree-square workflow (731 tasks).
func TwoDegree() Spec {
	return Spec{
		Name: "montage-2deg", Degrees: 2, Images: 162, Diffs: 402,
		TotalCPU:    units.Duration(20.3 * units.SecondsPerHour),
		MosaicBytes: units.Bytes(557.9 * units.MB),
		TargetCCR:   0.053, Bandwidth: units.Mbps(10), Seed: 2,
	}
}

// FourDegree returns the spec of the 4-degree-square workflow (3,027
// tasks).
func FourDegree() Spec {
	return Spec{
		Name: "montage-4deg", Degrees: 4, Images: 662, Diffs: 1698,
		TotalCPU:    units.Duration(84 * units.SecondsPerHour),
		MosaicBytes: units.Bytes(2.229 * units.GB),
		TargetCCR:   0.045, Bandwidth: units.Mbps(10), Seed: 4,
	}
}

// Presets returns the paper's three workflows in size order.
func Presets() []Spec { return []Spec{OneDegree(), TwoDegree(), FourDegree()} }

// FromDegrees builds a spec for an arbitrary mosaic size by scaling the
// paper's presets: image count grows with sky area, CPU time and mosaic
// size likewise.  Used by the whole-sky planner for 6-degree mosaics.
func FromDegrees(degrees float64, seed int64) Spec {
	base := OneDegree()
	area := degrees * degrees
	images := int(math.Round(41*area + 4)) // ~41 plates per sq. degree + border
	diffs := int(math.Round(2.5 * float64(images)))
	return Spec{
		Name:    fmt.Sprintf("montage-%.3gdeg", degrees),
		Degrees: degrees, Images: images, Diffs: diffs,
		TotalCPU:    units.Duration(float64(base.TotalCPU) / 1.12 * area), // ~5 CPU-h per sq. degree
		MosaicBytes: units.BytesOf(float64(base.MosaicBytes) / 1.25 * area),
		TargetCCR:   0.05, Bandwidth: units.Mbps(10), Seed: seed,
	}
}

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("montage: spec has no name")
	case s.Images < 2:
		return fmt.Errorf("montage: need at least 2 images, got %d", s.Images)
	case s.Diffs < 1:
		return fmt.Errorf("montage: need at least 1 diff, got %d", s.Diffs)
	case s.TotalCPU <= 0:
		return fmt.Errorf("montage: non-positive TotalCPU %v", s.TotalCPU)
	case s.MosaicBytes <= 0:
		return fmt.Errorf("montage: non-positive MosaicBytes %d", s.MosaicBytes)
	case s.TargetCCR < 0:
		return fmt.Errorf("montage: negative TargetCCR %v", s.TargetCCR)
	case s.TargetCCR > 0 && s.Bandwidth <= 0:
		return fmt.Errorf("montage: TargetCCR set but no reference bandwidth")
	}
	return nil
}

// TaskCount returns the number of tasks Generate will produce: 2N + D + 5.
func (s Spec) TaskCount() int { return 2*s.Images + s.Diffs + 5 }

// Nominal per-type profiles.  Runtimes (seconds on the reference CPU) are
// shaped like published Montage profiles -- mProject dominates, the serial
// tail (mConcatFit..mJPEG) is short -- and are rescaled as a whole to hit
// Spec.TotalCPU, so only the ratios matter.  Sizes (bytes) are likewise
// nominal; intermediates are rescaled to hit the CCR target.
var (
	rtProfiles = map[string]trace.Profile{
		"mProject":   {Base: 200, Jitter: 0.25},
		"mDiffFit":   {Base: 12, Jitter: 0.25},
		"mConcatFit": {Base: 15, Jitter: 0.10},
		"mBgModel":   {Base: 30, Jitter: 0.10},
		"mBackground": {
			Base: 15, Jitter: 0.25,
		},
		"mAdd":    {Base: 80, Jitter: 0.10},
		"mShrink": {Base: 20, Jitter: 0.10},
		"mJPEG":   {Base: 10, Jitter: 0.10},
	}
	szInput     = trace.Profile{Base: 3 * units.MB, Jitter: 0.10}   // 2MASS FITS plate
	szProjected = trace.Profile{Base: 6.6 * units.MB, Jitter: 0.10} // reprojected image
	szFit       = trace.Profile{Base: 5 * units.KB, Jitter: 0.20}   // plane-fit coefficients
	szSmallTbl  = trace.Profile{Base: 50 * units.KB}                // metadata tables
	szTemplate  = trace.Profile{Base: 10 * units.KB}                // template header
	szJPEG      = trace.Profile{Base: 500 * units.KB}               // preview image
	shrinkRatio = 0.10                                              // mShrink output vs mosaic
)

// Generate builds, calibrates and finalizes the workflow described by s.
func Generate(s Spec) (*dag.Workflow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sampler := trace.NewSampler(s.Seed)
	w := dag.New(s.Name)

	b := &builder{w: w, s: s, sampler: sampler}
	if err := b.build(); err != nil {
		return nil, err
	}
	if err := b.calibrateRuntimes(); err != nil {
		return nil, err
	}
	if s.TargetCCR > 0 {
		if err := b.calibrateCCR(); err != nil {
			return nil, err
		}
	}
	if err := w.Finalize(); err != nil {
		return nil, fmt.Errorf("montage: %w", err)
	}
	return w, nil
}

// builder accumulates the workflow plus the bookkeeping needed for the
// two calibration passes (which must run before Finalize freezes it).
type builder struct {
	w       *dag.Workflow
	s       Spec
	sampler *trace.Sampler

	taskRuntimes []float64   // parallel to task IDs
	files        []builtFile // in creation order
}

// builtFile is one workflow file and whether calibrateCCR must leave
// its size alone: the external inputs and the staged-out outputs, whose
// sizes the paper anchors.
type builtFile struct {
	f     *dag.File
	fixed bool
}

// addFile registers a file with a size sampled from p.
func (b *builder) addFile(name string, p trace.Profile, output bool) error {
	return b.add(name, b.sampler.SampleBytes(p), output, false)
}

// addFixedFile registers a file whose size calibrateCCR keeps.
func (b *builder) addFixedFile(name string, size units.Bytes, output bool) error {
	return b.add(name, size, output, true)
}

func (b *builder) add(name string, size units.Bytes, output, fixed bool) error {
	f, err := b.w.AddFile(name, size, output)
	if err != nil {
		return err
	}
	b.files = append(b.files, builtFile{f: f, fixed: fixed})
	return nil
}

func (b *builder) addTask(name, typ string, inputs, outputs []string) error {
	rt := b.sampler.Sample(rtProfiles[typ])
	// Runtime 0 placeholder; calibrateRuntimes sets the real values via a
	// rebuild-free path: we record samples and write them scaled.
	if _, err := b.w.AddTask(name, typ, units.Duration(rt), inputs, outputs); err != nil {
		return err
	}
	b.taskRuntimes = append(b.taskRuntimes, rt)
	return nil
}

// paddedNames returns the n names prefix + i + suffix for i in [0, n),
// i zero-padded to width digits as fmt's "%0<width>d" pads it: an index
// wider than width prints in full.  Each name is formatted once, with
// strconv appends, and the n names share one string.
func paddedNames(prefix string, n, width int, suffix string) []string {
	buf := make([]byte, 0, n*(len(prefix)+width+len(suffix)))
	ends := make([]int, n)
	var num [20]byte
	for i := range ends {
		d := strconv.AppendInt(num[:0], int64(i), 10)
		buf = append(buf, prefix...)
		for k := len(d); k < width; k++ {
			buf = append(buf, '0')
		}
		buf = append(buf, d...)
		buf = append(buf, suffix...)
		ends[i] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	start := 0
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

func (b *builder) build() error {
	s := b.s
	// Shared template header, used by every mProject and mDiffFit.
	if err := b.addFile("region.hdr", szTemplate, false); err != nil {
		return err
	}
	// External input images, which keep their nominal size, and their
	// reprojections.
	raw := paddedNames("2mass-", s.Images, 4, ".fits")
	proj := paddedNames("proj-", s.Images, 4, ".fits")
	for i := range raw {
		if err := b.addFixedFile(raw[i], b.sampler.SampleBytes(szInput), false); err != nil {
			return err
		}
		if err := b.addFile(proj[i], szProjected, false); err != nil {
			return err
		}
	}
	for i, name := range paddedNames("mProject-", s.Images, 4, "") {
		if err := b.addTask(name, "mProject", []string{raw[i], "region.hdr"}, []string{proj[i]}); err != nil {
			return err
		}
	}
	// Overlap pairs and mDiffFit tasks.
	pairs := overlapPairs(s.Images, s.Diffs)
	fits := paddedNames("fit-", len(pairs), 5, ".txt")
	for d, name := range paddedNames("mDiffFit-", len(pairs), 5, "") {
		if err := b.addFile(fits[d], szFit, false); err != nil {
			return err
		}
		p := pairs[d]
		if err := b.addTask(name, "mDiffFit", []string{proj[p[0]], proj[p[1]], "region.hdr"}, []string{fits[d]}); err != nil {
			return err
		}
	}
	// Serial spine: mConcatFit -> mBgModel.
	if err := b.addFile("fits.tbl", szSmallTbl, false); err != nil {
		return err
	}
	if err := b.addTask("mConcatFit", "mConcatFit", fits, []string{"fits.tbl"}); err != nil {
		return err
	}
	if err := b.addFile("corrections.tbl", szSmallTbl, false); err != nil {
		return err
	}
	if err := b.addTask("mBgModel", "mBgModel", []string{"fits.tbl"}, []string{"corrections.tbl"}); err != nil {
		return err
	}
	// Background rectification fan.
	bg := paddedNames("bg-", s.Images, 4, ".fits")
	for _, name := range bg {
		if err := b.addFile(name, szProjected, false); err != nil {
			return err
		}
	}
	for i, name := range paddedNames("mBackground-", s.Images, 4, "") {
		if err := b.addTask(name, "mBackground", []string{proj[i], "corrections.tbl"}, []string{bg[i]}); err != nil {
			return err
		}
	}
	// Final serial spine: mAdd -> mShrink -> mJPEG.
	if err := b.addFixedFile("mosaic.fits", s.MosaicBytes, true); err != nil {
		return err
	}
	if err := b.addTask("mAdd", "mAdd", bg, []string{"mosaic.fits"}); err != nil {
		return err
	}
	if err := b.addFile("mosaic-small.fits",
		trace.Profile{Base: float64(s.MosaicBytes) * shrinkRatio}, false); err != nil {
		return err
	}
	if err := b.addTask("mShrink", "mShrink", []string{"mosaic.fits"}, []string{"mosaic-small.fits"}); err != nil {
		return err
	}
	if err := b.addFixedFile("mosaic.jpg", units.Bytes(szJPEG.Base), true); err != nil {
		return err
	}
	return b.addTask("mJPEG", "mJPEG", []string{"mosaic-small.fits"}, []string{"mosaic.jpg"})
}

// calibrateRuntimes rescales every sampled runtime so their sum equals
// Spec.TotalCPU.
func (b *builder) calibrateRuntimes() error {
	factor, err := trace.CalibrationFactor(b.taskRuntimes, b.s.TotalCPU.Seconds())
	if err != nil {
		return fmt.Errorf("montage: runtime calibration: %w", err)
	}
	for i, rt := range b.taskRuntimes {
		b.w.Tasks()[i].Runtime = units.Duration(rt * factor)
	}
	return nil
}

// calibrateCCR rescales intermediate file sizes (everything except the
// external inputs and the staged-out outputs, whose sizes are anchored by
// the paper) so the workflow's total file bytes satisfy
//
//	CCR = totalBytes / B / totalRuntime.
func (b *builder) calibrateCCR() error {
	s := b.s
	targetTotal := s.TargetCCR * s.Bandwidth.BytesPerSecond() * s.TotalCPU.Seconds()
	// Sizes are whole bytes, so these float sums are exact (below 2^53)
	// in any order: creation order gives the same totals as name order.
	var fixed, scalable float64
	for _, bf := range b.files {
		if bf.fixed {
			fixed += float64(bf.f.Size)
		} else {
			scalable += float64(bf.f.Size)
		}
	}
	need := targetTotal - fixed
	if need <= 0 {
		return fmt.Errorf("montage: CCR %v unreachable: fixed files alone are %.0f bytes of a %.0f byte budget",
			s.TargetCCR, fixed, targetTotal)
	}
	factor, err := trace.CalibrationFactor([]float64{scalable}, need)
	if err != nil {
		return fmt.Errorf("montage: CCR calibration: %w", err)
	}
	for _, bf := range b.files {
		if !bf.fixed {
			bf.f.Size = units.BytesOf(float64(bf.f.Size) * factor)
		}
	}
	return nil
}

// overlapPairs lays n images on a near-square grid and returns exactly
// want neighbor pairs, enumerating right, down, down-right and down-left
// adjacencies row-major (the overlap pattern of a gridded sky survey) and
// extending with wider strides when the geometric pairs run out.
func overlapPairs(n, want int) [][2]int {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pairs := make([][2]int, 0, want)
	add := func(a, bIdx int) bool {
		if bIdx >= n || len(pairs) >= want {
			return len(pairs) < want
		}
		pairs = append(pairs, [2]int{a, bIdx})
		return len(pairs) < want
	}
	for i := 0; i < n && len(pairs) < want; i++ {
		col := i % cols
		if col+1 < cols {
			add(i, i+1) // right
		}
		add(i, i+cols) // down
		if col+1 < cols {
			add(i, i+cols+1) // down-right
		}
		if col > 0 {
			add(i, i+cols-1) // down-left
		}
	}
	// Wider strides for dense overlap requests.
	for stride := 2; len(pairs) < want; stride++ {
		if stride >= n {
			// Fall back to repeating near-neighbor pairs; Montage DAGs
			// never need this, but stay total for tiny synthetic inputs.
			for i := 0; len(pairs) < want; i = (i + 1) % (n - 1) {
				pairs = append(pairs, [2]int{i, i + 1})
			}
			break
		}
		for i := 0; i+stride < n && len(pairs) < want; i++ {
			pairs = append(pairs, [2]int{i, i + stride})
		}
	}
	return pairs[:want]
}
