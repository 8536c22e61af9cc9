// Package pairing is the pairing analyzer corpus: Reserve results need
// Release on every exit path.
package pairing

// Reservation mimics kernel.Reservation.
type Reservation struct{ slots int }

func (r *Reservation) Release() {}

func (r *Reservation) Slice(i int) []float64 { return nil }

// Reserve mimics kernel.Reserve.
func Reserve(n int) *Reservation { return &Reservation{slots: n} }

func discarded() {
	Reserve(3) // want `result of pairing.Reserve discarded`
}

func blanked() {
	_ = Reserve(3) // want `result of pairing.Reserve discarded`
}

// deferred is the canonical safe form, covering panics too: clean.
func deferred() {
	ws := Reserve(2)
	defer ws.Release()
	_ = ws.Slice(0)
}

// chained acquires and defers the release in one statement: clean.
func chained() {
	defer Reserve(1).Release()
}

// linear releases on the only path: clean.
func linear() {
	ws := Reserve(2)
	_ = ws.Slice(0)
	ws.Release()
}

func earlyReturn(fail bool) {
	ws := Reserve(2)
	if fail {
		return // want `return without releasing ws`
	}
	ws.Release()
}

// branchesCovered releases on both the early-out and the main path:
// clean.
func branchesCovered(fail bool) {
	ws := Reserve(2)
	if fail {
		ws.Release()
		return
	}
	_ = ws.Slice(0)
	ws.Release()
}

func fallThrough() {
	ws := Reserve(2) // want `pairing.Reserve acquired into ws is not released on the fall-through path`
	_ = ws.Slice(0)
}

type holder struct{ ws *Reservation }

// escapeField hands ownership to the holder, whose lifecycle releases
// (the rt/engine pattern): clean.
func escapeField(h *holder) {
	h.ws = Reserve(2)
}

// escapeReturn hands the reservation to the caller: clean.
func escapeReturn() *Reservation {
	return Reserve(2)
}

// escapeVar hands the reservation to the caller via a local: clean.
func escapeVar() *Reservation {
	ws := Reserve(2)
	return ws
}

// escapeArg passes the reservation on; the recipient owns it: clean.
func escapeArg() {
	ws := Reserve(2)
	adopt(ws)
}

func adopt(ws *Reservation) {}

// allowedLeak is an intentional process-lifetime reservation.
func allowedLeak() {
	//hsd:allow pairing process-lifetime reservation, reclaimed by the OS at exit
	ws := Reserve(1)
	_ = ws.Slice(0)
}
