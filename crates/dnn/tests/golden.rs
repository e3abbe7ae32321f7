//! Golden outputs: pins the exact bits of zoo forward passes, so a change
//! to the weight layout, the init draw order or a GEMM summation order
//! cannot slip through as a small numeric drift. The serving benchmark's
//! output check builds its reference with the same code as the server, so
//! it cannot catch such a change; these digests can.
//!
//! To re-derive after an intended numeric change, print `fnv1a` of each
//! output and replace the table, saying why in the change log.

use dnn::zoo::{self, App};
use dnn::Network;
use tensor::{Shape, Tensor};

/// FNV-1a over the `f32::to_bits` of every value.
fn fnv1a(t: &Tensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

const ROWS: [usize; 4] = [1, 3, 28, 100];

fn check(name: &str, net: &Network, want: [u64; 4]) {
    for (rows, want) in ROWS.into_iter().zip(want) {
        let mut dims = net.def().input_shape().dims().to_vec();
        dims[0] = rows;
        let x = Tensor::random_uniform(Shape::new(&dims).unwrap(), 1.0, 9);
        let got = fnv1a(&net.forward(&x).unwrap());
        assert_eq!(got, want, "{name} rows={rows}: got {got:016x}");
    }
}

#[test]
fn textgen_forward_is_bitwise_pinned() {
    let net = Network::with_random_weights(zoo::textgen(), 0x7E47).unwrap();
    check(
        "textgen",
        &net,
        [
            0x6f1a_ace1_9a99_3388,
            0x6c7e_be26_9840_1598,
            0x1d90_4dd0_e15a_d2cf,
            0xdbb9_c209_3932_18ff,
        ],
    );
}

#[test]
fn senna_pos_forward_is_bitwise_pinned() {
    check(
        "pos",
        &zoo::network(App::Pos).unwrap(),
        [
            0xd1b1_821c_ac3c_777c,
            0xda1e_23a9_ce7d_97ad,
            0x027e_8059_cf47_be33,
            0xf4dd_1312_fd6a_58ea,
        ],
    );
}

#[test]
fn senna_ner_forward_is_bitwise_pinned() {
    check(
        "ner",
        &zoo::network(App::Ner).unwrap(),
        [
            0x3317_557c_81c2_51a4,
            0x81f7_12af_eb42_b5ad,
            0x3aec_d24f_e7bd_9ed9,
            0x52c0_9190_aff4_a9c7,
        ],
    );
}

#[test]
fn mnist_dig_forward_is_bitwise_pinned() {
    check(
        "dig",
        &zoo::network(App::Dig).unwrap(),
        [
            0xd246_d406_2cb3_62c8,
            0x2512_f3bb_5e52_ffb4,
            0x093f_9bcd_205c_7ec4,
            0x7cf8_e152_8ea9_82e7,
        ],
    );
}
