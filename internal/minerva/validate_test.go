package minerva

import (
	"strings"
	"testing"
	"time"

	"iqn/internal/transport"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // "" means valid
	}{
		{name: "zero value", cfg: Config{}},
		{name: "hedging disabled by zero", cfg: Config{HedgeDelay: 0}},
		{name: "admission disabled by zero", cfg: Config{AdmissionLimit: 0}},
		{name: "cache disabled by zero", cfg: Config{DirectoryCacheTTL: 0}},
		{name: "cache enabled", cfg: Config{DirectoryCacheTTL: time.Minute}},
		{name: "full overload config", cfg: Config{
			Replicas:       2,
			HedgeDelay:     5 * time.Millisecond,
			AdmissionLimit: 8,
			AdmissionQueue: 16,
			DirectoryRetry: transport.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
			Breakers:       &transport.BreakerConfig{FailureThreshold: 3, ProbeAfter: 2, Jitter: 0.5},
		}},
		{name: "negative synopsis bits", cfg: Config{SynopsisBits: -1}, wantErr: "SynopsisBits"},
		{name: "negative replicas", cfg: Config{Replicas: -2}, wantErr: "Replicas"},
		{name: "negative hedge delay", cfg: Config{HedgeDelay: -time.Millisecond}, wantErr: "HedgeDelay"},
		{name: "negative cache ttl", cfg: Config{DirectoryCacheTTL: -time.Second}, wantErr: "DirectoryCacheTTL"},
		{name: "negative admission limit", cfg: Config{AdmissionLimit: -4}, wantErr: "AdmissionLimit"},
		{name: "negative admission queue", cfg: Config{AdmissionQueue: -1}, wantErr: "AdmissionQueue"},
		{name: "chunk size disabled by zero", cfg: Config{TopKChunkSize: 0}},
		{name: "chunk size enabled", cfg: Config{TopKChunkSize: 32}},
		{name: "negative chunk size", cfg: Config{TopKChunkSize: -8}, wantErr: "TopKChunkSize"},
		{name: "negative retry delay", cfg: Config{DirectoryRetry: transport.RetryPolicy{BaseDelay: -time.Second}}, wantErr: "DirectoryRetry"},
		{name: "negative retry timeout", cfg: Config{DirectoryRetry: transport.RetryPolicy{Timeout: -time.Second}}, wantErr: "DirectoryRetry"},
		{name: "negative breaker threshold", cfg: Config{Breakers: &transport.BreakerConfig{FailureThreshold: -1}}, wantErr: "Breakers"},
		{name: "breaker jitter above one", cfg: Config{Breakers: &transport.BreakerConfig{Jitter: 1.5}}, wantErr: "Jitter"},
		{name: "breaker jitter negative", cfg: Config{Breakers: &transport.BreakerConfig{Jitter: -0.1}}, wantErr: "Jitter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "minerva:") {
				t.Fatalf("error %q not prefixed with package name", err)
			}
		})
	}
}

// NewPeer must reject invalid configs instead of constructing a peer
// that would misbehave at query time.
func TestNewPeerRejectsInvalidConfig(t *testing.T) {
	net := transport.NewInMem()
	_, err := NewPeer("p0", net, Config{HedgeDelay: -time.Second})
	if err == nil || !strings.Contains(err.Error(), "HedgeDelay") {
		t.Fatalf("NewPeer with negative HedgeDelay: err = %v, want HedgeDelay validation error", err)
	}
}
