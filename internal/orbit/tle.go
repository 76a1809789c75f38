package orbit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"leosim/internal/geo"
)

// TLE is a parsed NORAD two-line element set.
type TLE struct {
	Name   string // optional line 0
	SatNum int

	Epoch time.Time

	// Mean elements at epoch, in TLE units.
	InclinationDeg float64
	RAANDeg        float64
	Eccentricity   float64
	ArgPerigeeDeg  float64
	MeanAnomalyDeg float64
	MeanMotion     float64 // revolutions per day

	BStar   float64 // drag term, 1/earth-radii
	NDot    float64 // first derivative of mean motion / 2, rev/day^2
	NDDot   float64 // second derivative of mean motion / 6, rev/day^3
	ElsetNo int
	RevNum  int
}

// MeanMotionRadPerMin returns the mean motion in radians per minute, the
// unit SGP4 consumes.
func (t TLE) MeanMotionRadPerMin() float64 {
	return t.MeanMotion * 2 * math.Pi / 1440
}

// SemiMajorKm returns the Kozai semi-major axis implied by the mean motion.
func (t TLE) SemiMajorKm() float64 {
	n := t.MeanMotion * 2 * math.Pi / 86400 // rad/s
	return math.Cbrt(geo.EarthMu / (n * n))
}

// Elements converts the TLE mean elements to classical elements. This drops
// the SGP4 mean-element theory (Kozai → Brouwer conversion) and is intended
// for coarse geometry, not precision propagation; use NewSGP4 for the latter.
func (t TLE) Elements() Elements {
	return Elements{
		SemiMajorKm:    t.SemiMajorKm(),
		Eccentricity:   t.Eccentricity,
		InclinationRad: t.InclinationDeg * geo.Deg,
		RAANRad:        t.RAANDeg * geo.Deg,
		ArgPerigeeRad:  t.ArgPerigeeDeg * geo.Deg,
		MeanAnomalyRad: t.MeanAnomalyDeg * geo.Deg,
		Epoch:          t.Epoch,
	}
}

// ParseTLE parses a two- or three-line element set. Lines may carry trailing
// whitespace. The checksum of both data lines is verified.
func ParseTLE(lines ...string) (TLE, error) {
	var l0, l1, l2 string
	switch len(lines) {
	case 2:
		l1, l2 = lines[0], lines[1]
	case 3:
		l0, l1, l2 = lines[0], lines[1], lines[2]
	default:
		return TLE{}, fmt.Errorf("tle: want 2 or 3 lines, got %d", len(lines))
	}
	l1 = strings.TrimRight(l1, " \r\n")
	l2 = strings.TrimRight(l2, " \r\n")
	if len(l1) < 69 || len(l2) < 69 {
		return TLE{}, fmt.Errorf("tle: lines must be at least 69 characters (got %d, %d)", len(l1), len(l2))
	}
	if l1[0] != '1' || l2[0] != '2' {
		return TLE{}, fmt.Errorf("tle: line numbers must be 1 and 2")
	}
	for i, l := range []string{l1, l2} {
		if err := verifyChecksum(l); err != nil {
			return TLE{}, fmt.Errorf("tle: line %d: %w", i+1, err)
		}
	}

	var t TLE
	t.Name = strings.TrimSpace(l0)
	var err error
	if t.SatNum, err = atoiField(l1[2:7]); err != nil {
		return TLE{}, fmt.Errorf("tle: satnum: %w", err)
	}
	if t.Epoch, err = parseEpoch(l1[18:32]); err != nil {
		return TLE{}, err
	}
	if t.NDot, err = atofField(l1[33:43]); err != nil {
		return TLE{}, fmt.Errorf("tle: ndot: %w", err)
	}
	if t.NDDot, err = parseImpliedDecimal(l1[44:52]); err != nil {
		return TLE{}, fmt.Errorf("tle: nddot: %w", err)
	}
	if t.BStar, err = parseImpliedDecimal(l1[53:61]); err != nil {
		return TLE{}, fmt.Errorf("tle: bstar: %w", err)
	}
	if t.ElsetNo, err = atoiField(l1[64:68]); err != nil {
		return TLE{}, fmt.Errorf("tle: elset: %w", err)
	}

	if t.InclinationDeg, err = atofField(l2[8:16]); err != nil {
		return TLE{}, fmt.Errorf("tle: inclination: %w", err)
	}
	if t.RAANDeg, err = atofField(l2[17:25]); err != nil {
		return TLE{}, fmt.Errorf("tle: raan: %w", err)
	}
	eraw := strings.TrimSpace(l2[26:33])
	if t.Eccentricity, err = strconv.ParseFloat("0."+eraw, 64); err != nil {
		return TLE{}, fmt.Errorf("tle: eccentricity: %w", err)
	}
	if t.ArgPerigeeDeg, err = atofField(l2[34:42]); err != nil {
		return TLE{}, fmt.Errorf("tle: argp: %w", err)
	}
	if t.MeanAnomalyDeg, err = atofField(l2[43:51]); err != nil {
		return TLE{}, fmt.Errorf("tle: mean anomaly: %w", err)
	}
	if t.MeanMotion, err = atofField(l2[52:63]); err != nil {
		return TLE{}, fmt.Errorf("tle: mean motion: %w", err)
	}
	if t.RevNum, err = atoiField(l2[63:68]); err != nil {
		return TLE{}, fmt.Errorf("tle: rev number: %w", err)
	}
	if err := t.validate(); err != nil {
		return TLE{}, err
	}
	return t, nil
}

// validate rejects element values outside the physical/format ranges; such
// lines can only arise from corruption (the checksum is weak). In range, the
// elements must still describe a closed orbit above the surface: a mean
// motion the range admits can put the perigee underground.
func (t TLE) validate() error {
	switch {
	case t.MeanMotion <= 0 || t.MeanMotion > 20:
		return fmt.Errorf("tle: mean motion %v rev/day out of range (0,20]", t.MeanMotion)
	case t.InclinationDeg < 0 || t.InclinationDeg > 180:
		return fmt.Errorf("tle: inclination %v out of [0,180]", t.InclinationDeg)
	case t.RAANDeg < 0 || t.RAANDeg >= 360:
		return fmt.Errorf("tle: RAAN %v out of [0,360)", t.RAANDeg)
	case t.ArgPerigeeDeg < 0 || t.ArgPerigeeDeg >= 360:
		return fmt.Errorf("tle: argument of perigee %v out of [0,360)", t.ArgPerigeeDeg)
	case t.MeanAnomalyDeg < 0 || t.MeanAnomalyDeg >= 360:
		return fmt.Errorf("tle: mean anomaly %v out of [0,360)", t.MeanAnomalyDeg)
	case t.Eccentricity < 0 || t.Eccentricity >= 1:
		return fmt.Errorf("tle: eccentricity %v out of [0,1)", t.Eccentricity)
	case t.SatNum < 0:
		return fmt.Errorf("tle: negative satellite number")
	case math.Abs(t.NDot) >= 1:
		return fmt.Errorf("tle: ndot %v out of (-1,1) rev/day²", t.NDot)
	case math.Abs(t.NDDot) >= 1 || math.Abs(t.BStar) >= 1:
		return fmt.Errorf("tle: nddot/bstar magnitude ≥ 1")
	}
	if err := t.Elements().Validate(); err != nil {
		return fmt.Errorf("tle: %w", err)
	}
	return nil
}

// Format renders the TLE as a standard two-line element set with valid
// checksums. The output round-trips through ParseTLE.
func (t TLE) Format() (line1, line2 string) {
	epochYr := t.Epoch.UTC().Year() % 100
	doy := float64(t.Epoch.UTC().YearDay()) + secondsIntoDay(t.Epoch)/86400

	l1 := fmt.Sprintf("1 %05dU 00000A   %02d%012.8f %s %s %s 0 %4d",
		t.SatNum%100000, epochYr, doy,
		formatNDot(t.NDot), formatImplied(t.NDDot), formatImplied(t.BStar),
		t.ElsetNo%10000)
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d",
		t.SatNum%100000, t.InclinationDeg, t.RAANDeg,
		int(math.Round(t.Eccentricity*1e7))%10000000,
		t.ArgPerigeeDeg, t.MeanAnomalyDeg, t.MeanMotion, t.RevNum%100000)
	return l1 + strconv.Itoa(checksum(l1)), l2 + strconv.Itoa(checksum(l2))
}

func secondsIntoDay(t time.Time) float64 {
	t = t.UTC()
	return float64(t.Hour())*3600 + float64(t.Minute())*60 +
		float64(t.Second()) + float64(t.Nanosecond())*1e-9
}

// checksum computes the TLE checksum of the first 68 characters: the sum of
// all digits, with '-' counting as 1, modulo 10.
func checksum(line string) int {
	sum := 0
	n := len(line)
	if n > 68 {
		n = 68
	}
	for _, c := range line[:n] {
		switch {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	return sum % 10
}

func verifyChecksum(line string) error {
	want := checksum(line)
	got := int(line[68] - '0')
	if got != want {
		return fmt.Errorf("checksum %d, want %d", got, want)
	}
	return nil
}

// parseEpoch decodes the YYDDD.DDDDDDDD epoch field. Years 57–99 map to
// 1957–1999, 00–56 to 2000–2056, per convention.
func parseEpoch(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if len(s) < 5 {
		return time.Time{}, fmt.Errorf("tle: epoch field %q too short", s)
	}
	yy, err := strconv.Atoi(s[:2])
	if err != nil {
		return time.Time{}, fmt.Errorf("tle: epoch year: %w", err)
	}
	year := 2000 + yy
	if yy >= 57 {
		year = 1900 + yy
	}
	doy, err := strconv.ParseFloat(s[2:], 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("tle: epoch day: %w", err)
	}
	if doy < 1 || doy >= 367 {
		return time.Time{}, fmt.Errorf("tle: epoch day-of-year %v out of [1,367)", doy)
	}
	base := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	return base.Add(time.Duration((doy - 1) * 86400 * float64(time.Second))), nil
}

// parseImpliedDecimal parses TLE fields like " 12345-3" meaning 0.12345e-3,
// or "-11606-4" meaning -0.11606e-4.
func parseImpliedDecimal(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "00000-0" || s == "00000+0" {
		return 0, nil
	}
	sign := 1.0
	if s[0] == '-' {
		sign = -1
		s = s[1:]
	} else if s[0] == '+' {
		s = s[1:]
	}
	// Split mantissa and exponent: exponent is the trailing signed digit.
	var mant, exp string
	if i := strings.LastIndexAny(s, "+-"); i > 0 {
		mant, exp = s[:i], s[i:]
	} else {
		mant, exp = s, "0"
	}
	m, err := strconv.ParseFloat("0."+mant, 64)
	if err != nil {
		return 0, err
	}
	e, err := strconv.Atoi(strings.TrimPrefix(exp, "+"))
	if err != nil {
		return 0, err
	}
	return sign * m * math.Pow(10, float64(e)), nil
}

func formatImplied(v float64) string {
	if v == 0 {
		return " 00000+0"
	}
	sign := " "
	if v < 0 {
		sign = "-"
		v = -v
	}
	exp := 0
	for v < 0.1 {
		v *= 10
		exp--
	}
	for v >= 1 {
		v /= 10
		exp++
	}
	mant := int(math.Round(v * 1e5))
	if mant == 100000 { // rounding pushed the mantissa to 1.0
		mant = 10000
		exp++
	}
	es := fmt.Sprintf("%+d", exp)
	return fmt.Sprintf("%s%05d%s", sign, mant, es)
}

func formatNDot(v float64) string {
	return fmt.Sprintf("%s.%08d", signStr(v), int(math.Round(math.Abs(v)*1e8))%100000000)
}

func signStr(v float64) string {
	if v < 0 {
		return "-"
	}
	return " "
}

func atoiField(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	return strconv.Atoi(s)
}

func atofField(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}
