package eclat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b, want itemset.Tidlist
	}{
		{itemset.Tidlist{1, 2, 3}, itemset.Tidlist{2, 3, 4}, itemset.Tidlist{2, 3}},
		{itemset.Tidlist{}, itemset.Tidlist{1}, itemset.Tidlist{}},
		{itemset.Tidlist{1, 5, 9}, itemset.Tidlist{2, 6}, itemset.Tidlist{}},
		{itemset.Tidlist{1, 2}, itemset.Tidlist{1, 2}, itemset.Tidlist{1, 2}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if len(got) != len(c.want) {
			t.Fatalf("intersect(%v,%v) = %v", c.a, c.b, got)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("intersect(%v,%v) = %v", c.a, c.b, got)
			}
		}
	}
}

func TestMineMatchesApriori(t *testing.T) {
	want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Mine(classicDB(), 2.0/9.0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("eclat disagrees with apriori:\n got %v\nwant %v", got.All(), want.All())
	}
}

func TestMineEmptyDB(t *testing.T) {
	if _, err := Mine(itemset.NewDB("e", nil), 0.5); err == nil {
		t.Fatal("empty DB accepted")
	}
}

func TestMineNothingFrequent(t *testing.T) {
	db := itemset.NewDB("sparse", [][]itemset.Item{{1}, {2}, {3}})
	res, err := Mine(db, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() != 0 {
		t.Fatalf("frequent = %d", res.NumFrequent())
	}
}

// Property: Eclat agrees exactly with sequential Apriori on random
// databases across support thresholds.
func TestMineAgreesWithAprioriProperty(t *testing.T) {
	f := func(seed int64, sup8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sup := 0.1 + float64(sup8%8)/10.0
		rows := make([][]itemset.Item, rng.Intn(25)+5)
		for i := range rows {
			n := rng.Intn(6) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(9)))
			}
		}
		db := itemset.NewDB("rand", rows)
		want, err := apriori.Mine(db, sup, apriori.Options{})
		if err != nil {
			return false
		}
		got, err := Mine(db, sup)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
