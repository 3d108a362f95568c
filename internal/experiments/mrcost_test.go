package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"yafim/internal/mrapriori"
)

// TestMRAprioriJobCostsGolden pins every MRApriori job's virtual stage
// costs on Chess. The count jobs share one set of candidate trees per job
// in the process, but the ledger must keep charging each of the 192 map
// tasks its own tree construction, as Hadoop pays it per task: dropping
// that charge, or charging it once per job, changes the map stages' cpu.
func TestMRAprioriJobCostsGolden(t *testing.T) {
	b, err := FindBenchmark("Chess")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv()
	db, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, runner, err := RunMRApriori(context.Background(), db, b.Support, env.Hadoop,
		env.tasks(env.Hadoop), mrapriori.Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, rep := range runner.Reports() {
		fmt.Fprintf(&sb, "%s overhead=%v\n", rep.Name, rep.Overhead)
		for _, st := range rep.Stages {
			fmt.Fprintf(&sb, "  %s tasks=%d cpu=%.0f disk_r=%d disk_w=%d net=%d makespan=%v\n",
				st.Name, st.Tasks, st.Total.CPUOps, st.Total.DiskRead, st.Total.DiskWrite,
				st.Total.Net, st.Makespan)
		}
	}
	if got := sb.String(); got != mrAprioriChessCosts {
		t.Errorf("MRApriori job costs moved:\n--- got ---\n%s--- want ---\n%s", got, mrAprioriChessCosts)
	}
}

const mrAprioriChessCosts = `apriori-pass1 overhead=15s
  apriori-pass1:map tasks=192 cpu=57120 disk_r=586440 disk_w=62976 net=0 makespan=3.503210098s
  apriori-pass1:reduce tasks=96 cpu=43484 disk_r=62976 disk_w=1392 net=63904 makespan=1.36599529s
apriori-pass2 overhead=15.000030788s
  apriori-pass2:map tasks=192 cpu=587067 disk_r=586440 disk_w=491182 net=0 makespan=4.082229797s
  apriori-pass2:reduce tasks=96 cpu=352833 disk_r=491182 disk_w=2370 net=492762 makespan=1.638355272s
apriori-pass3 overhead=15.000030313s
  apriori-pass3:map tasks=192 cpu=482995 disk_r=586440 disk_w=428036 net=0 makespan=4.227067599s
  apriori-pass3:reduce tasks=96 cpu=262557 disk_r=428036 disk_w=6564 net=432412 makespan=1.810372181s
apriori-pass4 overhead=15.000058295s
  apriori-pass4:map tasks=192 cpu=864481 disk_r=586440 disk_w=728140 net=0 makespan=4.121038s
  apriori-pass4:reduce tasks=96 cpu=405409 disk_r=728140 disk_w=11640 net=735900 makespan=1.648727127s
apriori-pass5 overhead=15.000074488s
  apriori-pass5:map tasks=192 cpu=1035073 disk_r=586440 disk_w=857654 net=0 makespan=4.363755398s
  apriori-pass5:reduce tasks=96 cpu=435528 disk_r=857654 disk_w=14118 net=867066 makespan=1.810194181s
apriori-pass6 overhead=15.000065679s
  apriori-pass6:map tasks=192 cpu=844452 disk_r=586440 disk_w=712726 net=0 makespan=4.058670599s
  apriori-pass6:reduce tasks=96 cpu=319878 disk_r=712726 disk_w=11994 net=720722 makespan=1.706732072s
apriori-pass7 overhead=15.000039899s
  apriori-pass7:map tasks=192 cpu=504527 disk_r=586440 disk_w=413336 net=0 makespan=4.259327199s
  apriori-pass7:reduce tasks=96 cpu=163945 disk_r=413336 disk_w=7080 net=418056 makespan=1.532620872s
apriori-pass8 overhead=15.000016063s
  apriori-pass8:map tasks=192 cpu=196848 disk_r=586440 disk_w=160096 net=0 makespan=3.7391772s
  apriori-pass8:reduce tasks=96 cpu=54568 disk_r=160096 disk_w=2784 net=161952 makespan=1.457337563s
apriori-pass9 overhead=15.000003886s
  apriori-pass9:map tasks=192 cpu=55077 disk_r=586440 disk_w=37440 net=0 makespan=3.4976732s
  apriori-pass9:reduce tasks=96 cpu=11520 disk_r=37440 disk_w=660 net=37880 makespan=1.34673649s
apriori-pass10 overhead=15.000000431s
  apriori-pass10:map tasks=192 cpu=20229 disk_r=586440 disk_w=4032 net=0 makespan=3.4380052s
  apriori-pass10:reduce tasks=96 cpu=1152 disk_r=4032 disk_w=72 net=4080 makespan=1.346787127s
`
