// Golden corpus for the refpair analyzer: Acquire/Release, acquireView/
// release, PinEpoch/UnpinEpochDeferred pairing on every path. Diagnostics anchor at
// the acquire site.
package golden

type manifest struct{}

type snapshot struct{}

func (m *manifest) Acquire() *snapshot { return &snapshot{} }
func (s *snapshot) Release()           {}
func (s *snapshot) Find(k []byte) bool { return false }

type slabs struct{}

func (s *slabs) PinEpoch()           {}
func (s *slabs) UnpinEpochDeferred() {}

type pt struct{ slabs *slabs }

func work() {}

var errBoom error

func okDefer(m *manifest) {
	s := m.Acquire()
	defer s.Release()
	s.Find(nil)
}

func okAllPaths(m *manifest, cond bool) {
	s := m.Acquire()
	if cond {
		s.Release()
		return
	}
	s.Release()
}

func badEarlyReturn(m *manifest, cond bool) error {
	s := m.Acquire() // want:refpair not released
	if cond {
		return errBoom
	}
	s.Release()
	return nil
}

func badFallOff(m *manifest) {
	s := m.Acquire() // want:refpair not released
	s.Find(nil)
}

// Returning the handle transfers ownership out of the function.
func okEscapeReturn(m *manifest) *snapshot {
	s := m.Acquire()
	return s
}

type holder struct{ snap *snapshot }

// Storing straight into a field transfers ownership to the struct.
func okEscapeStore(h *holder, m *manifest) {
	h.snap = m.Acquire()
}

func okPin(p *pt) {
	p.slabs.PinEpoch()
	work()
	p.slabs.UnpinEpochDeferred()
}

func okPinDefer(p *pt) {
	p.slabs.PinEpoch()
	defer p.slabs.UnpinEpochDeferred()
	work()
}

func badPinEarlyReturn(p *pt, cond bool) {
	p.slabs.PinEpoch() // want:refpair not released
	if cond {
		return
	}
	p.slabs.UnpinEpochDeferred()
}

// Re-acquiring over a live handle leaks the first acquire.
func badRebind(m *manifest) {
	s := m.Acquire() // want:refpair not released
	s = m.Acquire()
	s.Release()
}

// Release on every switch arm discharges the obligation.
func okSwitchAllArms(m *manifest, n int) {
	s := m.Acquire()
	switch n {
	case 0:
		s.Release()
	default:
		s.Release()
	}
}
