package figures

import (
	"reflect"
	"testing"
)

// The three resilience sweeps below run fixed seeds, so every count and
// every bandwidth figure is a deterministic function of the fault
// injector's draw order and the timing model. These tests pin each row of
// the default sweeps (what cmd/figures -fig faults|ecc|replication prints)
// exactly, float bits included: a change that draws a fault in a different
// order, skips a draw or prices a command differently moves a pin.

func TestFaultSweepPinned(t *testing.T) {
	want := []FaultSweepRow{
		{Rate: 0, GBps: 2857.1553133514985, Slowdown: 1, SenseFlips: 0, Retries: 0, DepthSplits: 0, HostFallbacks: 0, BitsCorrected: 0, WrongWords: 0},
		{Rate: 1e-07, GBps: 64.27855084901613, Slowdown: 44.44959128065395, SenseFlips: 0, Retries: 0, DepthSplits: 0, HostFallbacks: 0, BitsCorrected: 0, WrongWords: 0},
		{Rate: 1e-06, GBps: 64.27855084901613, Slowdown: 44.44959128065395, SenseFlips: 0, Retries: 0, DepthSplits: 0, HostFallbacks: 0, BitsCorrected: 0, WrongWords: 0},
		{Rate: 1e-05, GBps: 51.422210234656596, Slowdown: 55.56267029972752, SenseFlips: 1, Retries: 1, DepthSplits: 0, HostFallbacks: 0, BitsCorrected: 1, WrongWords: 0},
		{Rate: 0.0001, GBps: 12.225867757995498, Slowdown: 233.69754768392372, SenseFlips: 52, Retries: 13, DepthSplits: 4, HostFallbacks: 0, BitsCorrected: 52, WrongWords: 0},
		{Rate: 0.001, GBps: 8.680372686746939, Slowdown: 329.1512261580381, SenseFlips: 543, Retries: 25, DepthSplits: 7, HostFallbacks: 0, BitsCorrected: 543, WrongWords: 0},
	}
	got, err := FaultSweep(DefaultFaultRates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fault sweep moved:\n got %#v\nwant %#v", got, want)
	}
}

func TestECCSweepPinned(t *testing.T) {
	want := []ECCSweepRow{
		{Rate: 0, Mode: "readback", GBps: 64.27855084901613, Overhead: 44.44959128065395, SenseFlips: 0, Verifies: 133, EccDecodes: 0, EccCorrected: 0, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 0, Mode: "ecc", GBps: 2781.368700265252, Overhead: 1.0272479564032697, SenseFlips: 0, Verifies: 1, EccDecodes: 133, EccCorrected: 0, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 1e-07, Mode: "readback", GBps: 64.27855084901613, Overhead: 44.44959128065395, SenseFlips: 0, Verifies: 133, EccDecodes: 0, EccCorrected: 0, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 1e-07, Mode: "ecc", GBps: 2781.368700265252, Overhead: 1.0272479564032697, SenseFlips: 0, Verifies: 1, EccDecodes: 133, EccCorrected: 0, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 1e-06, Mode: "readback", GBps: 64.27855084901613, Overhead: 44.44959128065395, SenseFlips: 0, Verifies: 133, EccDecodes: 0, EccCorrected: 0, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 1e-06, Mode: "ecc", GBps: 2781.368700265252, Overhead: 1.0272479564032697, SenseFlips: 0, Verifies: 1, EccDecodes: 133, EccCorrected: 0, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 1e-05, Mode: "readback", GBps: 51.422210234656596, Overhead: 55.56267029972752, SenseFlips: 1, Verifies: 134, EccDecodes: 0, EccCorrected: 0, EccUncorrectable: 0, Retries: 1, HostFallbacks: 0, WrongWords: 0},
		{Rate: 1e-05, Mode: "ecc", GBps: 2528.2121760096447, Overhead: 1.1301089918256129, SenseFlips: 1, Verifies: 1, EccDecodes: 133, EccCorrected: 1, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 0.0001, Mode: "readback", GBps: 12.225867757995498, Overhead: 233.69754768392372, SenseFlips: 52, Verifies: 158, EccDecodes: 0, EccCorrected: 0, EccUncorrectable: 0, Retries: 13, HostFallbacks: 0, WrongWords: 0},
		{Rate: 0.0001, Mode: "ecc", GBps: 1985.939393939394, Overhead: 1.438692098092643, SenseFlips: 14, Verifies: 1, EccDecodes: 133, EccCorrected: 14, EccUncorrectable: 0, Retries: 0, HostFallbacks: 0, WrongWords: 0},
		{Rate: 0.001, Mode: "readback", GBps: 8.680372686746939, Overhead: 329.1512261580381, SenseFlips: 543, Verifies: 179, EccDecodes: 0, EccCorrected: 0, EccUncorrectable: 0, Retries: 25, HostFallbacks: 0, WrongWords: 0},
		{Rate: 0.001, Mode: "ecc", GBps: 61.64830383914398, Overhead: 46.346049046321525, SenseFlips: 263, Verifies: 5, EccDecodes: 136, EccCorrected: 138, EccUncorrectable: 1, Retries: 3, HostFallbacks: 0, WrongWords: 0},
	}
	got, err := ECCSweep(DefaultFaultRates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ECC sweep moved:\n got %#v\nwant %#v", got, want)
	}
}

func TestReplicationSweepPinned(t *testing.T) {
	want := []ReplicationRow{
		{Rate: 0, BaseGBps: 64.27855084901613, BaseRetries: 0, BaseSplits: 0, BaseHost: 0, BaseDegraded: 0, RepGBps: 61.109388659012765, RepVotes: 4, RepOutvoted: 0, RepRetries: 0, RepDegraded: 0, Speedup: 0.9506964275307418, WrongWords: 0},
		{Rate: 1e-07, BaseGBps: 64.27855084901613, BaseRetries: 0, BaseSplits: 0, BaseHost: 0, BaseDegraded: 0, RepGBps: 61.109388659012765, RepVotes: 4, RepOutvoted: 0, RepRetries: 0, RepDegraded: 0, Speedup: 0.9506964275307418, WrongWords: 0},
		{Rate: 1e-06, BaseGBps: 64.27855084901613, BaseRetries: 0, BaseSplits: 0, BaseHost: 0, BaseDegraded: 0, RepGBps: 61.109388659012765, RepVotes: 4, RepOutvoted: 1, RepRetries: 0, RepDegraded: 0, Speedup: 0.9506964275307418, WrongWords: 0},
		{Rate: 1e-05, BaseGBps: 51.422210234656596, BaseRetries: 1, BaseSplits: 0, BaseHost: 0, BaseDegraded: 0, RepGBps: 61.109388659012765, RepVotes: 4, RepOutvoted: 4, RepRetries: 0, RepDegraded: 0, Speedup: 1.1883851040270412, WrongWords: 0},
		{Rate: 0.0001, BaseGBps: 12.225867757995498, BaseRetries: 13, BaseSplits: 4, BaseHost: 0, BaseDegraded: 4, RepGBps: 61.109388659012765, RepVotes: 4, RepOutvoted: 42, RepRetries: 0, RepDegraded: 0, Speedup: 4.99836820327525, WrongWords: 0},
		{Rate: 0.001, BaseGBps: 8.680372686746939, BaseRetries: 25, BaseSplits: 7, BaseHost: 0, BaseDegraded: 7, RepGBps: 61.109388659012765, RepVotes: 4, RepOutvoted: 400, RepRetries: 0, RepDegraded: 0, Speedup: 7.039949880529168, WrongWords: 0},
	}
	got, err := ReplicationSweep(DefaultFaultRates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replication sweep moved:\n got %#v\nwant %#v", got, want)
	}
}
