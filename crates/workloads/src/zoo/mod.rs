//! Layer tables for every network in the paper's evaluation.
//!
//! Each constructor returns a [`Network`] whose layers carry faithful
//! operator dimensions for batch-1 inference. Identical repeated blocks are
//! collapsed via [`Layer::repeated`] so per-layer mapping search runs once
//! per unique shape.
//!
//! The registry functions at the bottom ([`by_name`], [`all`],
//! [`edge_suite`], …) group networks the way the paper's experiments use
//! them.

mod cnn;
mod generative;
mod mobile;
mod transformer;

pub use cnn::{convnext_tiny, resnet50, vgg16, xception};
pub use generative::{dleu, fsrcnn, resunet, srgan, unet};
pub use mobile::{
    efficientnet_v2_s, mobilenet_v1, mobilenet_v2, mobilenet_v3_large, mobilenet_v3_small,
    nasnet_mobile,
};
pub use transformer::{bert_base, vit_base};

use crate::{Layer, Network};

/// Looks a network's constructor up by its paper-table name
/// (case-insensitive), without building the network.
///
/// Recognized names include `bert`, `mobilenet`, `mobilenetv2`,
/// `mobilenetv3-large`, `mobilenetv3-small`, `resnet`, `srgan`, `unet`,
/// `vit`, `xception`, `vgg`, `nasnetmobile`, `efficientnetv2`, `convnext`,
/// `resunet`, `fsrcnn`, and `dleu`.
pub fn lookup(name: &str) -> Option<fn() -> Network> {
    let key = name.to_ascii_lowercase().replace(['_', ' '], "-");
    Some(match key.as_str() {
        "bert" | "bert-base" => bert_base,
        "mobilenet" | "mobilenetv1" => mobilenet_v1,
        "mobilenetv2" => mobilenet_v2,
        "mobilenetv3-large" => mobilenet_v3_large,
        "mobilenetv3-small" => mobilenet_v3_small,
        "resnet" | "resnet50" => resnet50,
        "srgan" => srgan,
        "unet" => unet,
        "vit" | "vit-base" => vit_base,
        "xception" => xception,
        "vgg" | "vgg16" => vgg16,
        "nasnetmobile" => nasnet_mobile,
        "efficientnetv2" | "efficientnetv2-s" => efficientnet_v2_s,
        "convnext" | "convnext-tiny" => convnext_tiny,
        "resunet" => resunet,
        "fsrcnn" => || fsrcnn(320, 120),
        "dleu" => dleu,
        _ => return None,
    })
}

/// Builds a network by its paper-table name (case-insensitive); the
/// names are those of [`lookup`].
pub fn by_name(name: &str) -> Option<Network> {
    lookup(name).map(|f| f())
}

/// Every network in the zoo.
pub fn all() -> Vec<Network> {
    vec![
        bert_base(),
        mobilenet_v1(),
        mobilenet_v2(),
        mobilenet_v3_large(),
        mobilenet_v3_small(),
        resnet50(),
        srgan(),
        unet(),
        vit_base(),
        xception(),
        vgg16(),
        nasnet_mobile(),
        efficientnet_v2_s(),
        convnext_tiny(),
        resunet(),
        fsrcnn(320, 120),
        dleu(),
    ]
}

/// The seven networks of Tables 1 and 2.
pub fn edge_suite() -> Vec<Network> {
    vec![
        bert_base(),
        mobilenet_v1(),
        resnet50(),
        srgan(),
        unet(),
        vit_base(),
        xception(),
    ]
}

/// Fig. 8 training set: {UNet, SRGAN, BERT}.
pub fn robustness_train_suite() -> Vec<Network> {
    vec![unet(), srgan(), bert_base()]
}

/// Fig. 8 validation set: {ResNet, ResUNet, ViT, MobileNet}.
pub fn robustness_validation_suite() -> Vec<Network> {
    vec![resnet50(), resunet(), vit_base(), mobilenet_v1()]
}

/// Fig. 9 training set: {MobileNetV2, ResNet, SRGAN, VGG}.
pub fn generalization_train_suite() -> Vec<Network> {
    vec![mobilenet_v2(), resnet50(), srgan(), vgg16()]
}

/// Fig. 9 validation set: the eight unseen networks.
pub fn generalization_validation_suite() -> Vec<Network> {
    vec![
        unet(),
        vit_base(),
        xception(),
        mobilenet_v3_large(),
        mobilenet_v3_small(),
        nasnet_mobile(),
        efficientnet_v2_s(),
        convnext_tiny(),
    ]
}

/// Fig. 11 industrial suite: UNet, FSRCNN at three resolutions, DLEU.
pub fn ascend_suite() -> Vec<Network> {
    vec![
        unet(),
        fsrcnn(320, 120),
        fsrcnn(640, 360),
        fsrcnn(1280, 720),
        dleu(),
    ]
}

pub(crate) fn net(name: &str, layers: Vec<Layer>) -> Network {
    Network::new(name, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_all_names() {
        for n in [
            "BERT",
            "MobileNet",
            "MobileNetV2",
            "MobileNetV3-Large",
            "mobilenetv3_small",
            "ResNet",
            "SRGAN",
            "UNet",
            "ViT",
            "Xception",
            "VGG",
            "NASNetMobile",
            "EfficientNetV2",
            "ConvNeXt",
            "ResUNet",
            "FSRCNN",
            "DLEU",
        ] {
            let built = by_name(n).unwrap_or_else(|| panic!("missing network {n}"));
            assert_eq!(lookup(n).map(|f| f()), Some(built), "lookup of {n}");
        }
        assert!(by_name("nonexistent-net").is_none());
        assert!(lookup("nonexistent-net").is_none());
    }

    #[test]
    fn all_networks_nonempty_and_distinctly_named() {
        let nets = all();
        assert!(nets.len() >= 17);
        let mut names: Vec<_> = nets.iter().map(|n| n.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), nets.len(), "duplicate network names");
        for n in &nets {
            assert!(n.total_macs() > 0);
        }
    }

    #[test]
    fn suites_match_paper_cardinality() {
        assert_eq!(edge_suite().len(), 7);
        assert_eq!(robustness_train_suite().len(), 3);
        assert_eq!(robustness_validation_suite().len(), 4);
        assert_eq!(generalization_train_suite().len(), 4);
        assert_eq!(generalization_validation_suite().len(), 8);
        assert_eq!(ascend_suite().len(), 5);
    }

    #[test]
    fn mac_magnitudes_are_plausible() {
        // Sanity-check the layer tables against published MAC counts
        // (order of magnitude only).
        let gmacs = |n: Network| n.total_macs() as f64 / 1e9;
        assert!((0.4..1.0).contains(&gmacs(mobilenet_v1())), "mnv1");
        assert!((0.2..0.5).contains(&gmacs(mobilenet_v2())), "mnv2");
        assert!((3.0..6.0).contains(&gmacs(resnet50())), "resnet50");
        assert!((10.0..20.0).contains(&gmacs(vgg16())), "vgg16");
        assert!((10.0..25.0).contains(&gmacs(bert_base())), "bert");
        assert!((10.0..25.0).contains(&gmacs(vit_base())), "vit");
    }
}
