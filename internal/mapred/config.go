package mapred

import "fmt"

// ConfigError reports an Engine knob whose value (or combination with
// other knobs) cannot produce a meaningful run. Run, RunAt and RunLocal
// return it before touching the cluster, so a bad configuration fails
// loudly at the first execution instead of being silently reinterpreted.
type ConfigError struct {
	Field  string // the offending Engine field
	Reason string // why the value is rejected
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("mapred: invalid Engine.%s: %s", e.Field, e.Reason)
}

// validateConfig screens the engine's knobs at run time. Validation
// happens per run rather than per assignment because the fields are set
// directly (there are no setters to intercept) and because some checks
// depend on the cluster view the run executes against.
func (e *Engine) validateConfig() error {
	if !e.cluster.Contains(e.ModelHome) {
		return &ConfigError{"ModelHome",
			fmt.Sprintf("node %d is not in the cluster view", e.ModelHome)}
	}
	if e.ModelSources < 1 {
		return &ConfigError{"ModelSources",
			fmt.Sprintf("%d; at least one replica node must serve model reads", e.ModelSources)}
	}
	if e.FailEveryNthMapTask < 0 {
		return &ConfigError{"FailEveryNthMapTask",
			fmt.Sprintf("%d; injection periods are positive (zero disables injection)", e.FailEveryNthMapTask)}
	}
	if e.StraggleEveryNthMapTask < 0 {
		return &ConfigError{"StraggleEveryNthMapTask",
			fmt.Sprintf("%d; injection periods are positive (zero disables injection)", e.StraggleEveryNthMapTask)}
	}
	if e.StragglerSlowdown < 0 || (e.StragglerSlowdown > 0 && e.StragglerSlowdown < 1) {
		return &ConfigError{"StragglerSlowdown",
			fmt.Sprintf("%g; stragglers run slower, not faster (zero selects the default)", e.StragglerSlowdown)}
	}
	if e.Workers < 0 {
		return &ConfigError{"Workers",
			fmt.Sprintf("%d; real parallelism cannot be negative (zero means GOMAXPROCS)", e.Workers)}
	}
	if e.TransferTimeout < 0 {
		return &ConfigError{"TransferTimeout",
			fmt.Sprintf("%g; deadlines are positive (zero disables the deadline)", float64(e.TransferTimeout))}
	}
	if e.TransferRetries < 0 {
		return &ConfigError{"TransferRetries",
			fmt.Sprintf("%d; retry caps cannot be negative (zero disables retries)", e.TransferRetries)}
	}
	if e.TransferRetries > 0 && e.TransferTimeout == 0 {
		return &ConfigError{"TransferRetries",
			fmt.Sprintf("%d retries with no TransferTimeout; without a deadline an attempt never fails over", e.TransferRetries)}
	}
	if e.RetryBackoff < 0 {
		return &ConfigError{"RetryBackoff",
			fmt.Sprintf("%g; backoff cannot be negative (zero selects the default)", float64(e.RetryBackoff))}
	}
	if e.FairSharingNetwork && e.cluster.NetworkPlan() != nil {
		return &ConfigError{"FairSharingNetwork",
			"incompatible with a registered NetworkPlan; degraded transfers are priced by the bottleneck model"}
	}
	if e.FairSharingNetwork && e.IntegrityChecks && e.cluster.CorruptionPlan().HasTransferEvents() {
		return &ConfigError{"FairSharingNetwork",
			"incompatible with scripted transfer bit-error windows under IntegrityChecks; verified transfers are priced by the bottleneck model"}
	}
	return nil
}
