package core

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// startAt makes the conn's next pick start its scan at the i-th address of
// the applied push, so a test steers a call's first leg by push order.
func (c *DataPlaneConn) startAt(i int) {
	c.mu.Lock()
	c.next = uint64(i)
	c.mu.Unlock()
}

// waiting reports whether a call holds the conn's wake channel: it found
// the replica set empty and waits for the next push.
func (c *DataPlaneConn) waiting() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wake != nil
}
