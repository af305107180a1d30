//! Minimal PNG encoding (no external dependencies).
//!
//! PPM/PGM dumps are exact but almost nothing displays them; PNG is
//! universal. This encoder writes standards-compliant PNGs using zlib
//! *stored* (uncompressed) DEFLATE blocks — larger files than a real
//! compressor would produce, but bit-exact, dependency-free, and decoded
//! by every viewer. Used by the HTML retrieval reports.
//!
//! Write-only by design: the library never needs to *read* PNGs (all
//! inputs are PNM or in-memory), so no decoder is provided.

use crate::gray::GrayImage;
use crate::rgb::RgbImage;

const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n'];

/// CRC-32 (ISO 3309, as required by the PNG spec), bitwise
/// implementation — encoding is I/O-bound here, no table needed.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32 checksum of the raw (pre-deflate) data, for the zlib footer.
fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a = 1u32;
    let mut b = 0u32;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Wraps raw bytes in a zlib stream of stored (type-0) DEFLATE blocks.
fn zlib_stored(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
    out.push(0x78); // CMF: deflate, 32K window
    out.push(0x01); // FLG: no dict, fastest (checksum-correct for 0x78)
    let mut chunks = raw.chunks(65_535).peekable();
    if raw.is_empty() {
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
    }
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(u8::from(last)); // BFINAL + BTYPE=00
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&adler32(raw).to_be_bytes());
    out
}

/// Appends one PNG chunk (length, type, payload, CRC).
fn push_chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    let crc_start = out.len();
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let crc = crc32(&out[crc_start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

fn encode(width: usize, height: usize, color_type: u8, scanlines: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(scanlines.len() + 1024);
    out.extend_from_slice(&PNG_SIGNATURE);
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(width as u32).to_be_bytes());
    ihdr.extend_from_slice(&(height as u32).to_be_bytes());
    ihdr.push(8); // bit depth
    ihdr.push(color_type); // 0 = gray, 2 = RGB
    ihdr.extend_from_slice(&[0, 0, 0]); // deflate, adaptive, no interlace
    push_chunk(&mut out, b"IHDR", &ihdr);
    push_chunk(&mut out, b"IDAT", &zlib_stored(scanlines));
    push_chunk(&mut out, b"IEND", &[]);
    out
}

/// Encodes a gray image as an 8-bit grayscale PNG. Intensities are
/// clamped into `[0, 255]`.
pub fn encode_png_gray(image: &GrayImage) -> Vec<u8> {
    let (w, h) = (image.width(), image.height());
    let mut scanlines = Vec::with_capacity(h * (w + 1));
    for y in 0..h {
        scanlines.push(0); // filter type: None
        for &v in image.row(y) {
            scanlines.push(v.clamp(0.0, 255.0).round() as u8);
        }
    }
    encode(w, h, 0, &scanlines)
}

/// Encodes an RGB image as an 8-bit truecolour PNG. Channels are clamped
/// into `[0, 255]`.
pub fn encode_png_rgb(image: &RgbImage) -> Vec<u8> {
    let (w, h) = (image.width(), image.height());
    let mut scanlines = Vec::with_capacity(h * (3 * w + 1));
    let channels = image.channels();
    for y in 0..h {
        scanlines.push(0); // filter type: None
        let row = &channels[y * w * 3..(y + 1) * w * 3];
        for &v in row {
            scanlines.push(v.clamp(0.0, 255.0).round() as u8);
        }
    }
    encode(w, h, 2, &scanlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: a tiny zlib-stored-block decoder, used only to verify
    /// the encoder round-trips.
    fn inflate_stored(data: &[u8]) -> Vec<u8> {
        assert_eq!(data[0], 0x78, "zlib CMF");
        let mut out = Vec::new();
        let mut pos = 2;
        loop {
            let bfinal = data[pos] & 1;
            assert_eq!(data[pos] >> 1, 0, "stored blocks only");
            let len = u16::from_le_bytes([data[pos + 1], data[pos + 2]]) as usize;
            let nlen = u16::from_le_bytes([data[pos + 3], data[pos + 4]]);
            assert_eq!(!nlen, len as u16, "LEN/NLEN mismatch");
            out.extend_from_slice(&data[pos + 5..pos + 5 + len]);
            pos += 5 + len;
            if bfinal == 1 {
                break;
            }
        }
        assert_eq!(
            u32::from_be_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]),
            adler32(&out),
            "adler32 mismatch"
        );
        out
    }

    /// Splits a PNG byte stream into (kind, payload) chunks, verifying
    /// every CRC.
    fn chunks(png: &[u8]) -> Vec<(String, Vec<u8>)> {
        assert_eq!(&png[..8], &PNG_SIGNATURE, "signature");
        let mut out = Vec::new();
        let mut pos = 8;
        while pos < png.len() {
            let len =
                u32::from_be_bytes([png[pos], png[pos + 1], png[pos + 2], png[pos + 3]]) as usize;
            let kind = String::from_utf8(png[pos + 4..pos + 8].to_vec()).unwrap();
            let payload = png[pos + 8..pos + 8 + len].to_vec();
            let crc = u32::from_be_bytes([
                png[pos + 8 + len],
                png[pos + 9 + len],
                png[pos + 10 + len],
                png[pos + 11 + len],
            ]);
            assert_eq!(
                crc,
                crc32(&png[pos + 4..pos + 8 + len]),
                "chunk CRC for {kind}"
            );
            out.push((kind, payload));
            pos += 12 + len;
        }
        out
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn adler32_matches_known_vector() {
        // Adler-32("Wikipedia") = 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn gray_png_structure_and_round_trip() {
        let img = GrayImage::from_fn(5, 3, |x, y| (x * 40 + y * 10) as f32).unwrap();
        let png = encode_png_gray(&img);
        let parts = chunks(&png);
        assert_eq!(parts[0].0, "IHDR");
        assert_eq!(parts.last().unwrap().0, "IEND");
        // IHDR fields.
        let ihdr = &parts[0].1;
        assert_eq!(u32::from_be_bytes([ihdr[0], ihdr[1], ihdr[2], ihdr[3]]), 5);
        assert_eq!(u32::from_be_bytes([ihdr[4], ihdr[5], ihdr[6], ihdr[7]]), 3);
        assert_eq!(ihdr[8], 8); // bit depth
        assert_eq!(ihdr[9], 0); // grayscale
                                // Decode the IDAT and compare scanlines.
        let idat = &parts.iter().find(|(k, _)| k == "IDAT").unwrap().1;
        let raw = inflate_stored(idat);
        assert_eq!(raw.len(), 3 * (5 + 1));
        for y in 0..3 {
            assert_eq!(raw[y * 6], 0, "filter byte");
            for x in 0..5 {
                assert_eq!(raw[y * 6 + 1 + x], (x * 40 + y * 10) as u8);
            }
        }
    }

    #[test]
    fn rgb_png_round_trip() {
        let img = RgbImage::from_fn(4, 2, |x, y| [(x * 60) as f32, (y * 100) as f32, 7.0]).unwrap();
        let png = encode_png_rgb(&img);
        let parts = chunks(&png);
        let ihdr = &parts[0].1;
        assert_eq!(ihdr[9], 2, "truecolour");
        let idat = &parts.iter().find(|(k, _)| k == "IDAT").unwrap().1;
        let raw = inflate_stored(idat);
        assert_eq!(raw.len(), 2 * (4 * 3 + 1));
        // Pixel (2, 1) = RGB(120, 100, 7).
        let (px, py) = (2, 1);
        let offset = py * 13 + 1 + px * 3;
        assert_eq!(&raw[offset..offset + 3], &[120, 100, 7]);
    }

    #[test]
    fn clamping_on_encode() {
        let img = GrayImage::from_vec(2, 1, vec![-50.0, 300.0]).unwrap();
        let png = encode_png_gray(&img);
        let parts = chunks(&png);
        let raw = inflate_stored(&parts.iter().find(|(k, _)| k == "IDAT").unwrap().1);
        assert_eq!(&raw[1..3], &[0, 255]);
    }

    #[test]
    fn large_image_spans_multiple_stored_blocks() {
        // > 65535 raw bytes forces at least two DEFLATE stored blocks.
        let img = GrayImage::from_fn(300, 300, |x, y| ((x + y) % 256) as f32).unwrap();
        let png = encode_png_gray(&img);
        let parts = chunks(&png);
        let idat = &parts.iter().find(|(k, _)| k == "IDAT").unwrap().1;
        let raw = inflate_stored(idat);
        assert_eq!(raw.len(), 300 * 301);
        assert!(raw.len() > 65_535, "test needs multiple blocks");
    }
}
