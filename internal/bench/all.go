package bench

import (
	"fmt"
	"io"
)

// Experiment names accepted by Run and cmd/orambench.
var Experiments = []string{
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17a", "fig17b", "fig18", "fig19",
	"ablation-dummy", "ablation-sched", "ablation-aging", "ablation-layout",
	"ablation-mac-m1", "ablation-superblock", "ablation-timing",
	"stash-study",
}

// Run executes one named experiment and writes its table to w.
func Run(name string, o Options, w io.Writer) error {
	var t *Table
	var err error
	switch name {
	case "fig10":
		_, t, err = Fig10(o)
	case "fig11":
		_, t, err = Fig11(o)
	case "fig12":
		_, t, err = Fig12(o)
	case "fig13":
		_, t, err = Fig13(o)
	case "fig14":
		_, t, err = Fig14(o)
	case "fig15":
		_, t, err = Fig15(o)
	case "fig16":
		_, t, err = Fig16(o)
	case "fig17a":
		_, t, err = Fig17a(o)
	case "fig17b":
		_, t, err = Fig17b(o)
	case "fig18":
		_, t, err = Fig18(o)
	case "fig19":
		_, t, err = Fig19(o)
	case "ablation-dummy":
		_, t, err = AblationDummyReplace(o)
	case "ablation-sched":
		_, t, err = AblationScheduling(o)
	case "ablation-aging":
		_, t, err = AblationAging(o)
	case "ablation-layout":
		_, t, err = AblationLayout(o)
	case "ablation-mac-m1":
		_, t, err = AblationMACM1(o)
	case "ablation-superblock":
		_, t, err = AblationSuperBlock(o)
	case "ablation-timing":
		_, t, err = AblationTiming(o)
	case "stash-study":
		_, t, err = StashStudy(o)
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", name, Experiments)
	}
	if err != nil {
		return fmt.Errorf("bench: %s: %w", name, err)
	}
	return t.Render(w)
}
