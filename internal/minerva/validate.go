package minerva

import "fmt"

// Validate rejects knob combinations that would misbehave at runtime,
// so bad configs fail loudly at construction (NewPeer calls it) instead
// of silently degrading mid-query. Zero values stay valid everywhere —
// they are the documented "feature disabled" defaults (a zero
// HedgeDelay means no hedging, a zero AdmissionLimit means no admission
// control) — but negative durations and counts are configuration
// mistakes.
func (c Config) Validate() error {
	if c.SynopsisBits < 0 {
		return fmt.Errorf("minerva: SynopsisBits %d is negative", c.SynopsisBits)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("minerva: Replicas %d is negative", c.Replicas)
	}
	if c.HedgeDelay < 0 {
		return fmt.Errorf("minerva: HedgeDelay %v is negative (use 0 to disable hedging)", c.HedgeDelay)
	}
	if c.DirectoryCacheTTL < 0 {
		return fmt.Errorf("minerva: DirectoryCacheTTL %v is negative (use 0 to disable caching)", c.DirectoryCacheTTL)
	}
	if c.AdmissionLimit < 0 {
		return fmt.Errorf("minerva: AdmissionLimit %d is negative (use 0 to disable admission control)", c.AdmissionLimit)
	}
	if c.AdmissionQueue < 0 {
		return fmt.Errorf("minerva: AdmissionQueue %d is negative", c.AdmissionQueue)
	}
	if c.TopKChunkSize < 0 {
		return fmt.Errorf("minerva: TopKChunkSize %d is negative (use 0 for the default)", c.TopKChunkSize)
	}
	if r := c.DirectoryRetry; r.BaseDelay < 0 || r.MaxDelay < 0 || r.Timeout < 0 {
		return fmt.Errorf("minerva: DirectoryRetry has a negative duration (base %v, max %v, timeout %v)",
			r.BaseDelay, r.MaxDelay, r.Timeout)
	}
	if a := c.Adaptive; a != nil {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("minerva: Adaptive: %w", err)
		}
	}
	if b := c.Breakers; b != nil {
		if b.FailureThreshold < 0 || b.ProbeAfter < 0 || b.MaxProbeAfter < 0 {
			return fmt.Errorf("minerva: Breakers has a negative count (threshold %d, probe-after %d, max %d)",
				b.FailureThreshold, b.ProbeAfter, b.MaxProbeAfter)
		}
		if b.Jitter < 0 || b.Jitter > 1 {
			return fmt.Errorf("minerva: Breakers.Jitter %v outside [0, 1]", b.Jitter)
		}
	}
	return nil
}
