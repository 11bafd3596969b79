//! Golden values of the `SimRng` stream: seeding, raw draws, the unit
//! float and index steps, forking, and the persisted state words. Every
//! simulation result and snapshot byte downstream is a function of this
//! stream, so any change to the generator shows up here first.

use eards_sim::{Persist, Reader, SimRng, Writer};

/// The four xoshiro256++ state words a persisted generator starts with.
fn words(rng: &SimRng) -> [u64; 4] {
    let mut w = Writer::new();
    rng.persist(&mut w);
    let bytes = w.into_bytes().unwrap();
    let mut r = Reader::new(&bytes);
    [(); 4].map(|()| r.get_u64().unwrap())
}

/// A generator restored from raw state words (no cached normal spare).
fn from_words(state: [u64; 4]) -> SimRng {
    let mut w = Writer::new();
    for word in state {
        w.put_u64(word);
    }
    w.put_opt::<f64>(&None);
    let bytes = w.into_bytes().unwrap();
    let mut r = Reader::new(&bytes);
    let rng = SimRng::restore(&mut r).unwrap();
    r.finish().unwrap();
    rng
}

#[test]
fn seeding_expands_through_splitmix64() {
    let cases: [(u64, [u64; 4]); 3] = [
        (
            0,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ],
        ),
        (
            42,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
            ],
        ),
        (
            0x0EA2D5,
            [
                0x64b1_cb65_f12a_07e9,
                0x66b3_bf96_8a2e_890b,
                0x2a4f_3e63_9e82_8970,
                0x313d_a70d_27fb_53a3,
            ],
        ),
    ];
    for (seed, state) in cases {
        assert_eq!(words(&SimRng::seed_from_u64(seed)), state, "seed {seed:#x}");
    }
}

#[test]
fn draws_match_the_pinned_stream() {
    let mut rng = SimRng::seed_from_u64(42);
    let raw: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        raw,
        [
            0xd076_4d4f_4476_689f,
            0x519e_4174_576f_3791,
            0xfbe0_7cfb_0c24_ed8c,
            0xb37d_9f60_0cd8_35b8,
        ]
    );
    let unit: Vec<u64> = (0..4).map(|_| rng.uniform().to_bits()).collect();
    assert_eq!(
        unit,
        [
            0x3fe9_6463_870e_908d,
            0x3fe2_d1b3_e009_ca1b,
            0x3fc0_0b8c_7f91_0d18,
            0x3fe3_5d29_c0e1_db19,
        ]
    );
    let idx: Vec<usize> = [1usize, 7, 100, 1 << 40]
        .iter()
        .map(|&n| rng.index(n))
        .collect();
    assert_eq!(idx, [0, 4, 34, 2_033_137_165]);

    let mut child = rng.fork(3);
    assert_eq!(
        words(&child),
        [
            0x4abc_7b13_372b_94c8,
            0x47bd_1749_ee5b_8249,
            0x4811_6b2d_b56e_daf7,
            0xa678_116b_59ea_b461,
        ]
    );
    assert_eq!(child.next_u64(), 0x8a05_0637_cc24_2f0e);
    assert_eq!(
        words(&rng),
        [
            0x9949_d617_556b_1e80,
            0xadb4_0333_92bd_5d57,
            0x416b_8567_a4b6_63b6,
            0x4294_a4d9_b068_2941,
        ]
    );
}

#[test]
fn restored_state_words_continue_the_stream() {
    // The state after seed 42, restored from its words, replays the
    // seeded stream.
    let mut restored = from_words(words(&SimRng::seed_from_u64(42)));
    assert_eq!(restored.next_u64(), 0xd076_4d4f_4476_689f);
    // The all-zero state is a fixed point of xoshiro; restore remaps it.
    assert_eq!(words(&from_words([0; 4])), [1, 2, 3, 4]);
}
