package constellation

// Shell presets matching §2 of the paper, which restricts the analysis to the
// first-phase shell of each constellation, with parameters from the FCC/ITU
// filings cited there.

// StarlinkPhase1 is SpaceX Starlink's first shell: 72 planes × 22 satellites
// at 550 km, 53° inclination, minimum elevation 25°.
func StarlinkPhase1() Shell {
	return Shell{
		Name:            "starlink-p1",
		Planes:          72,
		SatsPerPlane:    22,
		AltitudeKm:      550,
		InclinationDeg:  53,
		WalkerF:         1,
		RAANSpreadDeg:   360,
		MinElevationDeg: 25,
	}
}

// KuiperPhase1 is Amazon Kuiper's first shell: 34 planes × 34 satellites at
// 630 km, 51.9° inclination, minimum elevation 30°.
func KuiperPhase1() Shell {
	return Shell{
		Name:            "kuiper-p1",
		Planes:          34,
		SatsPerPlane:    34,
		AltitudeKm:      630,
		InclinationDeg:  51.9,
		WalkerF:         1,
		RAANSpreadDeg:   360,
		MinElevationDeg: 30,
	}
}

// PolarShell is a small polar (90°) star shell used for the §8 cross-shell
// BP-augmentation experiment (Fig 10), loosely modeled on the polar shells in
// Starlink's later phases.
func PolarShell() Shell {
	return Shell{
		Name:            "polar",
		Planes:          6,
		SatsPerPlane:    58,
		AltitudeKm:      560,
		InclinationDeg:  90,
		WalkerF:         1,
		RAANSpreadDeg:   180,
		MinElevationDeg: 25,
	}
}

// TestShell is a deliberately small shell (8 planes × 8 satellites) sharing
// Starlink's altitude/inclination, used to keep unit tests and reduced-scale
// benchmarks fast while exercising identical code paths.
func TestShell() Shell {
	return Shell{
		Name:            "test-8x8",
		Planes:          8,
		SatsPerPlane:    8,
		AltitudeKm:      550,
		InclinationDeg:  53,
		WalkerF:         1,
		RAANSpreadDeg:   360,
		MinElevationDeg: 25,
	}
}
