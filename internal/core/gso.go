package core

import (
	"context"
	"fmt"

	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/safe"
)

// GSORow quantifies Fig 9 at one latitude: how much of the usable sky the
// GSO arc-avoidance constraint blocks, and the average number of reachable
// satellites with and without the constraint.
type GSORow struct {
	LatitudeDeg     float64
	FOVBlockedFrac  float64
	VisibleSatsFree float64
	VisibleSatsGSO  float64
}

// RunGSOArc evaluates the GSO arc-avoidance impact (§7, Fig 9) on this
// sim's constellation: for terminals at a range of latitudes, the fraction
// of the ≥minElev sky blocked by the 22° separation rule and the mean count
// of connectable satellites over sampled snapshots. Fig 9 uses the 40°
// minimum elevation Starlink plans for full deployment.
func RunGSOArc(ctx context.Context, s *Sim, minElevDeg float64, latitudes []float64) (rows []GSORow, err error) {
	defer safe.RecoverTo(&err)
	policy := ground.StarlinkGSOPolicy()
	times := s.SnapshotTimes()
	if len(times) == 0 {
		return nil, fmt.Errorf("core: no snapshots to simulate (NumSnapshots = %d)",
			s.Scale.NumSnapshots)
	}
	if len(times) > 8 {
		times = times[:8]
	}
	for _, lat := range latitudes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos := geo.LL(lat, 0)
		obs := pos.ToECEF()
		ck := ground.NewGSOChecker(pos, policy)
		var free, constrained float64
		for _, t := range times {
			satPos := s.Const.PositionsECEF(t)
			for _, sp := range satPos {
				if geo.Elevation(obs, sp) < minElevDeg {
					continue
				}
				free++
				if ck.Allowed(sp) {
					constrained++
				}
			}
		}
		nT := float64(len(times))
		rows = append(rows, GSORow{
			LatitudeDeg:     lat,
			FOVBlockedFrac:  ground.FOVReduction(lat, minElevDeg, policy),
			VisibleSatsFree: free / nT,
			VisibleSatsGSO:  constrained / nT,
		})
	}
	return rows, nil
}
