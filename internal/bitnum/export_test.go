package bitnum

// InUse returns the number of held slots.
func (l *Limiter) InUse() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inUse
}

// Limit returns the configured maximum.
func (l *Limiter) Limit() int { return l.limit }
