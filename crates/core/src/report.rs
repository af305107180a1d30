//! Self-contained HTML retrieval reports — the visual form of the
//! paper's sample-run figures (Figs. 3-6, 4-3, 4-4): ranked thumbnails
//! with hit/miss markers and the learned concept's `t`/`w` maps, every
//! image embedded as a base64 PNG so one file tells the whole story.

use std::fmt::Write as _;
use std::path::Path;

use milr_imgproc::png::{encode_png_gray, encode_png_rgb};
use milr_imgproc::RgbImage;
use milr_mil::Concept;

use crate::error::CoreError;
use crate::visualize::{concept_point_image, concept_weight_image};

/// One ranked row of a report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// PNG bytes of the thumbnail.
    pub png: Vec<u8>,
    /// Caption (e.g. "image 17 · waterfall · d² = 0.34").
    pub caption: String,
    /// Whether the row is a correct retrieval (rendered highlighted).
    pub hit: bool,
}

impl ReportRow {
    /// Builds a row from a colour image.
    pub fn from_rgb(image: &RgbImage, caption: impl Into<String>, hit: bool) -> Self {
        Self {
            png: encode_png_rgb(image),
            caption: caption.into(),
            hit,
        }
    }
}

/// Standard (RFC 4648) base64, no padding shortcuts.
fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 63] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(triple >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[triple as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn escape_html(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Writes a self-contained HTML report: a ranked thumbnail grid plus
/// (optionally) the trained concept's `t`/`w` maps.
///
/// # Errors
/// Propagates I/O failures; a concept with a non-square dimension fails
/// as in [`concept_point_image`].
pub fn write_html_report<P: AsRef<Path>>(
    path: P,
    title: &str,
    rows: &[ReportRow],
    concept: Option<&Concept>,
) -> Result<(), CoreError> {
    let mut html = String::with_capacity(rows.len() * 4096);
    let _ = write!(
        html,
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>{t}</title><style>\
         body{{font-family:system-ui,sans-serif;background:#15161a;color:#e8e8ea;\
              margin:2rem}}\
         h1{{font-weight:600}}h2{{margin-top:2rem}}\
         .grid{{display:flex;flex-wrap:wrap;gap:12px}}\
         figure{{margin:0;padding:6px;border-radius:8px;background:#232530;\
                 border:2px solid transparent}}\
         figure.hit{{border-color:#4caf7d}}\
         figure.miss{{border-color:#b5524c}}\
         img{{display:block;image-rendering:pixelated}}\
         figcaption{{font-size:12px;margin-top:4px;max-width:160px}}\
         .concept img{{width:160px;height:160px}}\
         </style></head><body><h1>{t}</h1><div class=\"grid\">",
        t = escape_html(title)
    );
    for row in rows {
        let _ = write!(
            html,
            "<figure class=\"{cls}\"><img src=\"data:image/png;base64,{data}\" \
             alt=\"{cap}\"><figcaption>{cap}</figcaption></figure>",
            cls = if row.hit { "hit" } else { "miss" },
            data = base64(&row.png),
            cap = escape_html(&row.caption),
        );
    }
    html.push_str("</div>");

    if let Some(concept) = concept {
        let point = concept_point_image(concept)?;
        let weights = concept_weight_image(concept)?;
        let _ = write!(
            html,
            "<h2>Learned concept (Figs 3-7..3-9 form)</h2>\
             <div class=\"grid concept\">\
             <figure><img src=\"data:image/png;base64,{p}\" alt=\"ideal point t\">\
             <figcaption>ideal feature vector t</figcaption></figure>\
             <figure><img src=\"data:image/png;base64,{w}\" alt=\"weights w\">\
             <figcaption>weight factors w (bright = heavy)</figcaption></figure>\
             </div>",
            p = base64(&encode_png_gray(&point)),
            w = base64(&encode_png_gray(&weights)),
        );
    }
    html.push_str("</body></html>");
    std::fs::write(path, html).map_err(|e| CoreError::Image(milr_imgproc::ImageError::Io(e)))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_known_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foob"), "Zm9vYg==");
        assert_eq!(base64(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn report_contains_rows_and_concept() {
        let dir = std::env::temp_dir().join("milr_report_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.html");

        let ramp = RgbImage::from_fn(8, 8, |x, _| [(x * 30) as f32; 3]).unwrap();
        let rgb = RgbImage::filled(8, 8, [10.0, 200.0, 40.0]).unwrap();
        let rows = vec![
            ReportRow::from_rgb(&ramp, "image 0 · waterfall", true),
            ReportRow::from_rgb(&rgb, "image 1 · field <miss>", false),
        ];
        let concept = Concept::new(vec![0.5; 16], vec![1.0; 16]);
        write_html_report(&path, "Waterfall & friends", &rows, Some(&concept)).unwrap();

        let html = std::fs::read_to_string(&path).unwrap();
        assert!(html.contains("Waterfall &amp; friends"), "title escaped");
        assert_eq!(html.matches("data:image/png;base64,").count(), 4); // 2 rows + t + w
        assert!(html.contains("class=\"hit\""));
        assert!(html.contains("class=\"miss\""));
        assert!(html.contains("&lt;miss&gt;"), "captions escaped");
        assert!(html.contains("ideal feature vector t"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_without_concept_omits_the_section() {
        let dir = std::env::temp_dir().join("milr_report_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no_concept.html");
        let flat = RgbImage::filled(4, 4, [99.0; 3]).unwrap();
        let rows = vec![ReportRow::from_rgb(&flat, "only row", true)];
        write_html_report(&path, "plain", &rows, None).unwrap();
        let html = std::fs::read_to_string(&path).unwrap();
        assert!(!html.contains("Learned concept"));
        assert_eq!(html.matches("data:image/png;base64,").count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_square_concept_fails_cleanly() {
        let dir = std::env::temp_dir().join("milr_report_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_concept.html");
        let concept = Concept::new(vec![0.0; 10], vec![1.0; 10]);
        let err = write_html_report(&path, "t", &[], Some(&concept));
        assert!(err.is_err());
    }
}
