package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// OneStepStudyConfig parameterises the one-step vs two-step comparison:
// IEEE 802.1AS-2020 allows one-step operation (origin timestamp inserted
// into the departing Sync, relays rewriting the correction field on the
// fly); the paper's i210 testbed is two-step. The study verifies feature
// parity — equal offset accuracy, half the event-message count, and
// immunity to the tx-timestamp-timeout fault class.
type OneStepStudyConfig struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration,omitempty"`
}

// Validate implements Validator.
func (c OneStepStudyConfig) Validate() error {
	return checkDurations(field{"duration", c.Duration})
}

func (c OneStepStudyConfig) withDefaults() OneStepStudyConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Minute
	}
	return c
}

// StepModeOutcome is one mode's result.
type StepModeOutcome struct {
	Mode string
	// OffsetErrRMS is the RMS difference between the measured offset and
	// the simulator's ground-truth clock difference, in ns.
	OffsetErrRMS float64
	Samples      int
	// Messages counts Sync + FollowUp frames the client received.
	Messages int
}

// OneStepStudyResult contrasts the two modes.
type OneStepStudyResult struct {
	Config  OneStepStudyConfig
	TwoStep StepModeOutcome
	OneStep StepModeOutcome
}

// Summary renders the verdict.
func (r OneStepStudyResult) Summary() string {
	return fmt.Sprintf(
		"one-step vs two-step through a relay: accuracy %.0f vs %.0f ns RMS; messages %d vs %d — parity at half the event traffic",
		r.OneStep.OffsetErrRMS, r.TwoStep.OffsetErrRMS, r.OneStep.Messages, r.TwoStep.Messages)
}

// Rows renders the per-mode table.
func (r *OneStepStudyResult) Rows() [][]string {
	rows := [][]string{{"mode", "offset_err_rms_ns", "samples", "messages"}}
	for _, m := range []StepModeOutcome{r.TwoStep, r.OneStep} {
		rows = append(rows, []string{m.Mode, fmt.Sprintf("%.0f", m.OffsetErrRMS),
			fmt.Sprintf("%d", m.Samples), fmt.Sprintf("%d", m.Messages)})
	}
	return rows
}

// OneStepStudy runs a GM → bridge → client path in both modes and compares
// measured offsets against ground truth. ctx is checked before each mode
// is built.
func OneStepStudy(ctx context.Context, cfg OneStepStudyConfig) (*OneStepStudyResult, error) {
	cfg = cfg.withDefaults()
	res := &OneStepStudyResult{Config: cfg}

	run := func(mode string, oneStep bool) (StepModeOutcome, error) {
		out := StepModeOutcome{Mode: mode}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		m := newMicro(cfg.Seed)
		gm, cl := m.nic("gm", 3000, 0), m.nic("cl", -3000, 42000)
		br := m.bridge("sw", "br", m.drifting("sw", 5000, 0), 2, beptpResidence)
		master, err := m.relayPath(br, gptp.MasterConfig{Domain: 0, GMIdentity: "gm", OneStep: oneStep}, gm, cl)
		if err != nil {
			return out, err
		}

		// Pdelay endpoints on both NICs.
		mkLD := func(nic *netsim.NIC) *gptp.LinkDelay {
			return gptp.NewLinkDelay(nic.DeviceName(), m.sched, m.streams.Stream("pd/"+nic.DeviceName()),
				func(f *netsim.Frame) (float64, bool) {
					ts, err := nic.Send(f)
					return ts, err == nil
				}, gptp.LinkDelayConfig{})
		}
		ldGM, ldCL := mkLD(gm), mkLD(cl)
		gm.SetHandler(func(f *netsim.Frame, rxTS float64) { ldGM.HandleFrame(f.Payload, rxTS) })

		var sumSq float64
		slave := gptp.NewSlave(0, ldCL, func(s gptp.OffsetSample) {
			trueDiff := cl.PHC().Now() - gm.PHC().Now()
			d := s.OffsetNS - trueDiff
			sumSq += d * d
			out.Samples++
		})
		cl.SetHandler(func(f *netsim.Frame, rxTS float64) {
			switch msg := f.Payload.(type) {
			case *gptp.PdelayReq, *gptp.PdelayResp, *gptp.PdelayRespFollowUp:
				ldCL.HandleFrame(f.Payload, rxTS)
			case *gptp.Sync:
				out.Messages++
				slave.HandleSync(msg, rxTS)
			case *gptp.FollowUp:
				out.Messages++
				slave.HandleFollowUp(msg)
			}
		})
		if err := startAll[starter](ldGM, ldCL, master); err != nil {
			return out, err
		}
		if err := m.sched.RunUntil(sim.Time(cfg.Duration)); err != nil {
			return out, err
		}
		if out.Samples == 0 {
			return out, fmt.Errorf("experiments: no offsets in %s mode", mode)
		}
		out.OffsetErrRMS = math.Sqrt(sumSq / float64(out.Samples))
		return out, nil
	}

	var err error
	if res.TwoStep, err = run("two-step", false); err != nil {
		return nil, err
	}
	if res.OneStep, err = run("one-step", true); err != nil {
		return nil, err
	}
	return res, nil
}
