package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict judges one end-to-end metric of run b against run a under the
// bound BENCHMARK.json fixes for it. A difference beyond the bound is only
// "better" or "worse" when the within-run spread (IQR ÷ value, of either
// run) is itself inside the bound; otherwise it is "unresolved".
func verdict(m specMetric, a, b metric) (worseBy float64, v string) {
	worseBy = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	spread := 0.0
	for _, x := range []metric{a, b} {
		if x.IQR != nil && x.Value != 0 {
			spread = max(spread, *x.IQR/x.Value)
		}
	}
	switch {
	case worseBy <= m.Bound && worseBy >= -m.Bound:
		return worseBy, "same"
	case spread > m.Bound:
		return worseBy, "unresolved"
	case worseBy > 0:
		return worseBy, "worse"
	default:
		return worseBy, "better"
	}
}

// compareFiles prints, per workload and end-to-end metric, both runs' values
// and spreads, the change and its verdict, then result_digest equality. It
// returns an error — a non-zero exit — on any "worse", any changed digest
// and any failed operation.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	if a.Trace || b.Trace {
		return fmt.Errorf("-compare reads untraced result sets: end-to-end metrics are never taken from a traced pass")
	}
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\ta.iqr\tb\tb.iqr\tworse by\tbound\tverdict")
	var problems []string
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			problems = append(problems, ra.Workload+": missing from "+pathB)
			continue
		}
		for _, m := range sp.EndToEnd {
			ma, oka := ra.Metrics[m.Name]
			mb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				problems = append(problems, fmt.Sprintf("%s %s: not in both files", ra.Workload, m.Name))
				continue
			}
			worseBy, v := verdict(m, ma, mb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%s\t%.5g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, m.Name, m.Unit, ma.Value, iqrText(ma), mb.Value, iqrText(mb), 100*worseBy, 100*m.Bound, v)
			if v == "worse" {
				problems = append(problems, fmt.Sprintf("%s %s: worse by %.1f%% (bound %.0f%%)", ra.Workload, m.Name, 100*worseBy, 100*m.Bound))
			}
		}
		digests := "equal"
		if ra.ResultDigest != rb.ResultDigest {
			digests = "CHANGED"
			problems = append(problems, ra.Workload+": result_digest changed")
		}
		fmt.Fprintf(tw, "%s\tresult_digest\t\t\t\t\t\t\t\t%s\n", ra.Workload, digests)
		for _, r := range []*result{ra, rb} {
			if r.Failed > 0 || !r.Correct {
				problems = append(problems, fmt.Sprintf("%s: fail_share %g, correct=%v", r.Workload, r.FailShare, r.Correct))
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(w, "problem:", p)
		}
		return fmt.Errorf("%d problem(s) comparing %s with %s", len(problems), pathA, pathB)
	}
	return nil
}

func iqrText(m metric) string {
	if m.IQR == nil {
		return "-"
	}
	return fmt.Sprintf("%.3g", *m.IQR)
}
