// Golden corpus for the ignore directive: every construct here would be
// flagged without its //prismvet:ignore, so this file asserts that valid,
// reasoned suppressions silence the analyzers. Malformed directives are
// exercised by unit tests (they must REPORT, so they cannot live in a
// zero-diagnostic golden file).
package golden

func probe() error { return nil }

func suppressedOnLineAbove() error {
	err := step()
	//prismvet:ignore shadowerr probe errors are expected and intentionally uncounted
	if err := probe(); err != nil {
		counters.drops++
	}
	return err
}

func suppressedSameLine() error {
	err := step()
	if err := probe(); err != nil { //prismvet:ignore shadowerr probe errors are expected here too
		counters.drops++
	}
	return err
}

func suppressedPin(p *pt, cond bool) {
	//prismvet:ignore refpair the matching UnpinEpochDeferred lives in a paired release function
	p.slabs.PinEpoch()
	if cond {
		return
	}
	p.slabs.UnpinEpochDeferred()
}

func suppressedList(p *part) {
	//prismvet:ignore lockheld,refpair exercised by the directive-list parser; callers hold the lock by construction
	p.bumpLocked()
}
